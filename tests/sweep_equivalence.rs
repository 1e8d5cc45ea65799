//! The sweep engine's core guarantee: a parallel sweep is observably
//! indistinguishable from running the same grid serially. Every counter in
//! every report — cycles, instruction counts, memory traffic, validation —
//! must match bit-for-bit, at any thread count, with each prepare key
//! timed on all of its scenarios (that reuse must not perturb results
//! either) and with the cost-sorted scheduler reordering execution under
//! the hood.

use std::sync::Arc;

use ava::isa::Lmul;
use ava::sim::{run_workload, Knob, ScenarioConfig, Sweep};
use ava::workloads::{
    composite, Axpy, Blackscholes, Composite, LavaMd2, ParticleFilter, SharedWorkload, Somier,
    Swaptions,
};

/// A 42-point grid (7 workloads × 6 configurations) covering all three
/// register-file organisations, the spill-heavy and swap-heavy regimes, and
/// one deliberately skewed large point (the oversized Blackscholes) whose
/// cost estimate dwarfs the rest — the case the cost-sorted scheduler
/// exists for.
fn grid() -> Sweep {
    let workloads: Vec<SharedWorkload> = vec![
        Arc::new(Axpy::new(512)),
        Arc::new(Blackscholes::new(128)),
        Arc::new(LavaMd2::new(16, 2)),
        Arc::new(ParticleFilter::new(256, 32)),
        Arc::new(Somier::new(512)),
        Arc::new(Swaptions::new(128)),
        // The skewed point: 4x the options of the regular Blackscholes.
        Arc::new(Blackscholes::new(512)),
    ];
    let systems = vec![
        ScenarioConfig::native_x(1),
        ScenarioConfig::native_x(8),
        ScenarioConfig::ava_x(2),
        ScenarioConfig::ava_x(8),
        ScenarioConfig::rg_lmul(Lmul::M4),
        ScenarioConfig::rg_lmul(Lmul::M8),
    ];
    Sweep::grid(workloads, systems)
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let sweep = grid();
    assert!(
        sweep.len() >= 30,
        "the acceptance grid must have at least 30 points"
    );

    let serial = sweep.runner().threads(1).run().into_reports();
    assert_eq!(serial.len(), sweep.len());
    for threads in [2, 4, 16] {
        let parallel = sweep.runner().threads(threads).run().into_reports();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let point = format!("{} on {} ({threads} threads)", s.workload, s.config);
            assert_eq!(
                s.workload, p.workload,
                "{point}: order must be deterministic"
            );
            assert_eq!(s.config, p.config, "{point}: order must be deterministic");
            assert_eq!(s.cycles, p.cycles, "{point}: cycles");
            assert_eq!(s.vpu_cycles, p.vpu_cycles, "{point}: vpu cycles");
            assert_eq!(s.validated, p.validated, "{point}: validation");
            assert_eq!(
                s.validation_error, p.validation_error,
                "{point}: validation error"
            );
            assert_eq!(
                s.vpu.issued_instrs(),
                p.vpu.issued_instrs(),
                "{point}: issued instrs"
            );
            assert_eq!(s.vpu.swap_ops(), p.vpu.swap_ops(), "{point}: swap ops");
            assert_eq!(s.vpu.spill_ops(), p.vpu.spill_ops(), "{point}: spill ops");
            assert_eq!(
                s.memory_instructions(),
                p.memory_instructions(),
                "{point}: memory instrs"
            );
            assert_eq!(
                s.compiler_spill_loads, p.compiler_spill_loads,
                "{point}: spill loads"
            );
            assert_eq!(
                s.compiler_spill_stores, p.compiler_spill_stores,
                "{point}: spill stores"
            );
            assert_eq!(
                s.register_pressure, p.register_pressure,
                "{point}: pressure"
            );
            // Debug formatting covers every remaining field (mem + scalar
            // stats) without enumerating them one by one.
            assert_eq!(format!("{s:?}"), format!("{p:?}"), "{point}: full report");
        }
    }
}

#[test]
fn sweep_matches_the_plain_runner_point_by_point() {
    // The sweep (cached compiles included) must agree with independent
    // `run_workload` calls — the path every pre-sweep caller used.
    let sweep = grid();
    let reports = sweep.runner().run().into_reports();
    let systems = sweep.systems().to_vec();
    for (i, report) in reports.iter().enumerate() {
        let workload = &sweep.workloads()[i / systems.len()];
        let system = &systems[i % systems.len()];
        let direct = run_workload(workload.as_ref(), system);
        assert_eq!(
            format!("{report:?}"),
            format!("{direct:?}"),
            "{} on {}",
            report.workload,
            report.config
        );
    }
}

#[test]
fn every_point_of_the_acceptance_grid_validates() {
    for r in grid().runner().run().into_reports() {
        assert!(
            r.validated,
            "{} on {}: {:?}",
            r.workload, r.config, r.validation_error
        );
    }
}

#[test]
fn skewed_grid_stays_in_grid_order_and_identical_to_serial() {
    // One huge point and many tiny ones: the scheduler pulls the huge point
    // to the front of the execution queue, so grid order of the *results*
    // and bit-identity with a serial run are exactly what this shape
    // stresses.
    let workloads: Vec<SharedWorkload> = vec![
        Arc::new(Axpy::new(64)),
        Arc::new(Axpy::new(96)),
        Arc::new(Axpy::new(128)),
        Arc::new(Blackscholes::new(512)), // the huge point
        Arc::new(Axpy::new(160)),
        Arc::new(Axpy::new(192)),
        Arc::new(Axpy::new(224)),
        Arc::new(Axpy::new(256)),
    ];
    let systems = vec![ScenarioConfig::native_x(1)];
    let sweep = Sweep::grid(workloads.clone(), systems);

    // The huge point really is the most expensive in the scheduler's eyes.
    let costs: Vec<u64> = (0..sweep.len()).map(|i| sweep.point_cost(i)).collect();
    assert_eq!(
        costs.iter().max(),
        Some(&costs[3]),
        "the skewed Blackscholes must carry the largest cost estimate"
    );

    let serial = sweep.runner().threads(1).run().into_reports();
    for threads in [2, 3, 8] {
        let report = sweep.runner().threads(threads).run();
        assert_eq!(report.reports.len(), serial.len());
        for (i, (s, p)) in serial.iter().zip(&report.reports).enumerate() {
            assert_eq!(
                p.workload,
                workloads[i].name(),
                "results must come back in grid order, not execution order"
            );
            assert_eq!(format!("{s:?}"), format!("{p:?}"), "point {i} must match");
        }
        // Instrumentation is present for every point and workers stayed in
        // range.
        assert_eq!(report.points.len(), serial.len());
        assert!(report.points.iter().all(|p| p.worker < threads));
        assert_eq!(report.points[3].cost_estimate, costs[3]);
    }
}

/// The acceptance grid of the scenario-axis refactor: one `Sweep` built
/// from `ScenarioConfig` axis builders — MVL {128, 256, 512} (the Table I
/// extrapolation) × two L2 capacities — over a single kernel and a
/// multi-kernel `Composite`, must validate everywhere and stay bit-identical
/// between serial and parallel execution.
#[test]
fn mvl_and_cache_axis_grid_is_bit_identical_and_validated() {
    let scenarios = ScenarioConfig::axis(
        &ScenarioConfig::axis_mvl(&[128, 256, 512]),
        Knob::L2_KIB,
        &[256, 1024],
    );
    assert_eq!(scenarios.len(), 6);
    let workloads: Vec<SharedWorkload> = vec![
        Arc::new(Axpy::new(2048)),
        Arc::new(Composite::new(vec![
            Arc::new(Axpy::new(1024)),
            Arc::new(Blackscholes::new(128)),
            Arc::new(Somier::new(512)),
        ])),
    ];
    let sweep = Sweep::grid(workloads, scenarios);
    assert_eq!(sweep.len(), 12);

    let serial = sweep.runner().threads(1).run().into_reports();
    for r in &serial {
        assert!(
            r.validated,
            "{} on {}: {:?}",
            r.workload, r.config, r.validation_error
        );
        // Every point of this grid carries both axis values.
        let names: Vec<&str> = r.axes.iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["mvl", "l2_kib"], "{}", r.config);
    }
    for threads in [2, 5] {
        let parallel = sweep.runner().threads(threads).run().into_reports();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                format!("{s:?}"),
                format!("{p:?}"),
                "{} on {} ({threads} threads)",
                s.workload,
                s.config
            );
        }
    }
    // The extrapolated-MVL points genuinely run longer vectors: each MVL
    // doubling quarters/halves the strip count, so the issued vector
    // instruction count strictly decreases along the axis.
    let axpy_l2_256: Vec<_> = serial
        .iter()
        .filter(|r| {
            r.workload == "axpy" && r.axes.iter().any(|a| a.name == "l2_kib" && a.value == 256)
        })
        .collect();
    assert_eq!(axpy_l2_256.len(), 3);
    assert!(
        axpy_l2_256[2].vpu.issued_instrs() < axpy_l2_256[1].vpu.issued_instrs()
            && axpy_l2_256[1].vpu.issued_instrs() < axpy_l2_256[0].vpu.issued_instrs(),
        "longer MVLs must issue fewer vector instructions: {} / {} / {}",
        axpy_l2_256[0].vpu.issued_instrs(),
        axpy_l2_256[1].vpu.issued_instrs(),
        axpy_l2_256[2].vpu.issued_instrs()
    );
}

/// The two-phase dataflow pipeline of the chained-validation satellite:
/// axpy's in-place output feeds somier's velocity (force-integration)
/// array.
fn axpy_feeds_somier(n: usize) -> Composite {
    Composite::pipelined(
        vec![Arc::new(Axpy::new(n)), Arc::new(Somier::new(n))],
        vec![composite::links(&[("y", "v")])],
    )
}

/// The pipelined acceptance grid: a dataflow composite whose phase 2 reads
/// phase 1's output, swept over scenario axes — every point must validate
/// against the *chained* scalar reference, carry per-phase breakdowns, and
/// stay bit-identical between serial and parallel execution.
#[test]
fn pipelined_grid_is_bit_identical_validated_and_phase_attributed() {
    let scenarios = ScenarioConfig::axis(
        &ScenarioConfig::axis_mvl(&[128, 256]),
        Knob::L2_KIB,
        &[256, 1024],
    );
    let workloads: Vec<SharedWorkload> = vec![
        Arc::new(axpy_feeds_somier(1024)),
        Arc::new(Composite::pipelined(
            vec![
                Arc::new(Axpy::new(512)),
                Arc::new(Somier::new(512)),
                Arc::new(Axpy::new(512)),
            ],
            vec![
                composite::links(&[("y", "v")]),
                composite::links(&[("xout", "x"), ("vout", "y")]),
            ],
        )),
    ];
    let sweep = Sweep::grid(workloads, scenarios);
    assert_eq!(sweep.len(), 8);

    let serial = sweep.runner().threads(1).run().into_reports();
    for r in &serial {
        assert_eq!(r.workload, "pipelined");
        assert!(
            r.validated,
            "{} on {}: {:?}",
            r.workload, r.config, r.validation_error
        );
        // Per-phase cycle/memory breakdowns partition the run's totals.
        assert!(r.phases.len() >= 2, "{}", r.config);
        assert_eq!(
            r.phases.iter().map(|p| p.vpu_cycles).sum::<u64>(),
            r.vpu_cycles,
            "{}: phase cycles must partition the total",
            r.config
        );
        assert_eq!(
            r.phases.iter().map(|p| p.vpu.issued_instrs()).sum::<u64>(),
            r.vpu.issued_instrs(),
            "{}: phase instruction counts must partition the total",
            r.config
        );
        assert_eq!(
            r.phases.iter().map(|p| p.mem.vmu_bytes).sum::<u64>(),
            r.mem.vmu_bytes,
            "{}: phase VMU traffic must partition the total",
            r.config
        );
        // The breakdown reaches the JSON report.
        let json = r.to_json().to_string();
        assert!(json.contains("\"phases\":[{\"name\":\"0:axpy\""), "{json}");
    }
    for threads in [2, 5] {
        let parallel = sweep.runner().threads(threads).run().into_reports();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                format!("{s:?}"),
                format!("{p:?}"),
                "{} on {} ({threads} threads)",
                s.workload,
                s.config
            );
        }
    }
}

/// One producer output linked to two inputs of its consumer, one of them
/// overwritten in place, validates whichever link is listed first: axpy
/// loads both operands of a strip before it stores `y` over them.
#[test]
fn an_output_linked_in_place_and_read_validates_in_either_link_order() {
    for pairs in [
        [("vout", "y"), ("vout", "x")],
        [("vout", "x"), ("vout", "y")],
    ] {
        let mix = Composite::pipelined(
            vec![Arc::new(Somier::new(512)), Arc::new(Axpy::new(512))],
            vec![composite::links(&pairs)],
        );
        let report = run_workload(&mix, &ScenarioConfig::ava_x(4));
        assert!(report.validated, "{pairs:?}: {:?}", report.validation_error);
    }
}

/// The chained golden reference is provably *chained*: somier's phase-2
/// checks are only satisfiable because its reference consumed axpy's real
/// (reference) output. Somier run standalone on its own generated velocity
/// data expects different values at the same stage.
#[test]
fn pipelined_validation_requires_the_chained_reference() {
    let n = 512;
    let scenario = ScenarioConfig::ava_x(4);
    let piped = run_workload(&axpy_feeds_somier(n), &scenario);
    assert!(piped.validated, "{:?}", piped.validation_error);

    // The same phases without the data binding expect different outputs:
    // substituting the independent composite's checks for the pipelined
    // ones must fail against the pipelined run's memory image — which is
    // exactly what would happen if the golden references were *not*
    // chained (each phase checked against its own generated inputs).
    let mut mem = ava::memory::MemoryHierarchy::default();
    let ctx = ava::isa::VectorContext::with_mvl(64);
    let chained = ava::workloads::Workload::build(&axpy_feeds_somier(n), &mut mem, &ctx);
    let mut mem2 = ava::memory::MemoryHierarchy::default();
    let unchained = ava::workloads::Workload::build(
        &Composite::new(vec![Arc::new(Axpy::new(n)), Arc::new(Somier::new(n))]),
        &mut mem2,
        &ctx,
    );
    // Write the chained expectations into memory (what a correct pipelined
    // simulation produces) and validate the unchained checks against it.
    for c in &chained.checks {
        mem.write_f64(c.addr, c.expected);
    }
    assert!(ava::workloads::validate(&mem, &chained.checks).is_ok());
    let somier_checks: Vec<_> = unchained
        .checks
        .iter()
        .filter(|c| {
            // Only somier's checks are comparable (axpy's were superseded
            // in the pipelined setup).
            let (s, e) = unchained.output("p1.vout").range();
            let (xs, xe) = unchained.output("p1.xout").range();
            (c.addr >= s && c.addr < e) || (c.addr >= xs && c.addr < xe)
        })
        .copied()
        .collect();
    assert!(
        ava::workloads::validate(&mem, &somier_checks).is_err(),
        "unchained somier expectations must NOT match the chained pipeline"
    );
}

/// A deliberately broken binding — the consumer rebased onto the wrong
/// producer buffer while the reference chain still uses the right values —
/// must fail validation when simulated.
#[test]
fn broken_binding_fails_validation() {
    use ava::compiler::RebaseRule;
    use ava::workloads::{BufferBindings, Workload, WorkloadSetup};

    struct Broken;
    impl Workload for Broken {
        fn name(&self) -> &'static str {
            "broken-binding"
        }
        fn domain(&self) -> &'static str {
            "test"
        }
        fn elements(&self) -> usize {
            Axpy::new(256).elements() + Somier::new(256).elements()
        }
        fn data_layout(&self) -> ava::workloads::DataLayout {
            // Same union layout a pipelined composite would plan.
            Composite::new(vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))]).data_layout()
        }
        fn build_with_bindings(
            &self,
            mem: &mut ava::memory::MemoryHierarchy,
            ctx: &ava::isa::VectorContext,
            plan: &ava::workloads::PlannedLayout,
            _bindings: &BufferBindings,
        ) -> WorkloadSetup {
            let axpy = Axpy::new(256);
            let somier = Somier::new(256);
            let p0 = plan.subset("p0.");
            let p1 = plan.subset("p1.");
            let part0 = axpy.build_with_bindings(mem, ctx, &p0, &BufferBindings::none());
            // The reference chain is correct (somier's v reference = axpy's
            // y reference)...
            let mut bindings = BufferBindings::none();
            bindings.bind("v", part0.output("y").values.clone());
            let part1 = somier.build_with_bindings(mem, ctx, &p1, &bindings);
            let mut setup = part0.clone();
            // ...but the kernel rebinding points somier's velocity loads at
            // axpy's *input* array instead of its output.
            setup.kernel.concat_remapped(
                &part1.kernel,
                &[RebaseRule {
                    old_base: p1.buffer("v").base,
                    bytes: p1.buffer("v").bytes(),
                    new_base: p0.addr("x"),
                }],
            );
            // Downstream supersedes the consumed y checks, as the real
            // composite does.
            let (ys, ye) = part0.output("y").range();
            setup.checks.retain(|c| c.addr < ys || c.addr >= ye);
            setup.checks.extend(part1.checks);
            setup.strips += part1.strips;
            setup.warm_ranges.extend(part1.warm_ranges);
            setup
        }
    }

    let report = run_workload(&Broken, &ScenarioConfig::ava_x(4));
    assert!(
        !report.validated,
        "a mis-bound pipeline must fail its chained checks"
    );
    let err = report.validation_error.unwrap();
    assert!(err.contains("expected"), "{err}");
}

/// The iterative-solver mix of ISSUE 5's acceptance grid: the somier
/// relaxation body unrolled `iters` times with ping-pong carry links.
fn solver(n: usize, iters: usize) -> Composite {
    Composite::iterated(
        Arc::new(Somier::relaxation(n)),
        iters,
        composite::links(&[("xout", "x"), ("vout", "v")]),
    )
}

/// The solver acceptance grid: MVL × L2 × iteration count. Every point must
/// validate against the `n`-step scalar reference (only the converged state
/// is checked), report one `iter`-labelled breakdown per iteration that
/// partitions the run totals exactly, and stay bit-identical between serial
/// and parallel execution. Odd and even iteration counts cover both
/// ping-pong parities.
#[test]
fn iterated_solver_grid_is_bit_identical_validated_and_iteration_attributed() {
    let scenarios = ScenarioConfig::axis(
        &ScenarioConfig::axis_mvl(&[128, 256]),
        Knob::L2_KIB,
        &[256, 1024],
    );
    let iter_axis = [3usize, 4];
    let workloads: Vec<SharedWorkload> = iter_axis
        .iter()
        .map(|&iters| Arc::new(solver(1024, iters)) as SharedWorkload)
        .collect();
    let sweep = Sweep::grid(workloads, scenarios);
    assert_eq!(sweep.len(), 8);

    let serial = sweep.runner().threads(1).run().into_reports();
    for (i, r) in serial.iter().enumerate() {
        let iters = iter_axis[i / 4];
        assert_eq!(r.workload, "iterated");
        assert!(
            r.validated,
            "{iters}-step solver on {}: {:?}",
            r.config, r.validation_error
        );
        // One breakdown per unrolled iteration, labelled with its index.
        assert_eq!(r.phases.len(), iters, "{}", r.config);
        for (k, phase) in r.phases.iter().enumerate() {
            assert_eq!(phase.iter, Some(k), "{}", r.config);
            assert_eq!(phase.name, format!("it{k}:somier"));
        }
        // The per-iteration counters partition the run totals exactly.
        assert_eq!(
            r.phases.iter().map(|p| p.vpu_cycles).sum::<u64>(),
            r.vpu_cycles,
            "{}: iteration cycles must partition the total",
            r.config
        );
        assert_eq!(
            r.phases.iter().map(|p| p.vpu.issued_instrs()).sum::<u64>(),
            r.vpu.issued_instrs(),
            "{}: iteration instruction counts must partition the total",
            r.config
        );
        assert_eq!(
            r.phases.iter().map(|p| p.mem.vmu_bytes).sum::<u64>(),
            r.mem.vmu_bytes,
            "{}: iteration VMU traffic must partition the total",
            r.config
        );
    }
    for threads in [2, 5] {
        let parallel = sweep.runner().threads(threads).run().into_reports();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                format!("{s:?}"),
                format!("{p:?}"),
                "{} on {} ({threads} threads)",
                s.workload,
                s.config
            );
        }
    }
}

/// A deliberately mis-wired carry link — the reference chain correctly
/// iterated, but the unrolled kernel missing the ping-pong rebase, so
/// iteration 2 re-reads iteration 1's *inputs* instead of its outputs —
/// must fail validation when simulated.
#[test]
fn mis_wired_carry_link_fails_validation() {
    use ava::workloads::{BufferBindings, Workload, WorkloadSetup};

    struct MisWired;
    impl Workload for MisWired {
        fn name(&self) -> &'static str {
            "mis-wired-carry"
        }
        fn domain(&self) -> &'static str {
            "test"
        }
        fn elements(&self) -> usize {
            solver(256, 2).elements()
        }
        fn data_layout(&self) -> ava::workloads::DataLayout {
            solver(256, 2).data_layout()
        }
        fn build_with_bindings(
            &self,
            mem: &mut ava::memory::MemoryHierarchy,
            ctx: &ava::isa::VectorContext,
            plan: &ava::workloads::PlannedLayout,
            _bindings: &BufferBindings,
        ) -> WorkloadSetup {
            let body = Somier::relaxation(256);
            let sub = plan.subset("p0.");
            let first = body.build_with_bindings(mem, ctx, &sub, &BufferBindings::none());
            // The reference chain is correct: iteration 2's golden
            // reference consumes iteration 1's reference outputs...
            let mut carried = BufferBindings::none();
            carried.bind("x", first.output("xout").values.clone());
            carried.bind("v", first.output("vout").values.clone());
            let second = body.build_with_bindings(mem, ctx, &sub, &carried);
            // ...but the kernel is concatenated WITHOUT the ping-pong
            // rebase map, so at run time iteration 2 re-reads the original
            // input arrays and recomputes iteration 1's state.
            let mut setup = first;
            setup.kernel.concat_remapped(&second.kernel, &[]);
            setup.strips += second.strips;
            // Only the "converged" state is checked, as in the real
            // iterated composite.
            setup.checks = second.checks;
            setup.outputs = second.outputs;
            setup
        }
    }

    let report = run_workload(&MisWired, &ScenarioConfig::ava_x(4));
    assert!(
        !report.validated,
        "a carry link missing its rebase must fail the iterated checks"
    );
    let err = report.validation_error.unwrap();
    assert!(err.contains("expected"), "{err}");
}

/// The equivalence guarantee extends to the result store: the acceptance
/// grid run with a store attached — cold (every point simulated and
/// checkpointed) and then fully warm (every point deserialised from disk) —
/// must stay bit-identical to the plain serial run, at any thread count.
#[test]
fn store_backed_sweep_is_bit_identical_to_serial() {
    let dir = std::env::temp_dir().join(format!(
        "ava-sweep-equivalence-store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ava::sim::ResultStore::open(&dir).unwrap();

    let sweep = grid();
    let serial = sweep.runner().threads(1).run().into_reports();

    let cold = sweep.runner().threads(4).store(&store).run();
    assert_eq!(cold.store_hits, 0);
    assert_eq!(cold.store_misses, sweep.len() as u64);
    let warm = sweep.runner().threads(4).store(&store).run();
    assert_eq!(warm.store_hits, sweep.len() as u64);
    assert_eq!(warm.store_misses, 0);

    for run in [&cold, &warm] {
        assert_eq!(run.reports.len(), serial.len());
        for (s, p) in serial.iter().zip(&run.reports) {
            assert_eq!(
                format!("{s:?}"),
                format!("{p:?}"),
                "{} on {}: store-backed run must match the serial run",
                s.workload,
                s.config
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A composite point must agree exactly with the plain runner on the same
/// scenario — the concatenated phases go through the shared
/// prepared-point memo like any other kernel.
#[test]
fn composite_points_match_the_plain_runner() {
    let mix: SharedWorkload = Arc::new(Composite::new(vec![
        Arc::new(Axpy::new(512)),
        Arc::new(Somier::new(256)),
    ]));
    let scenario = ScenarioConfig::ava_x(8)
        .with(Knob::MVL, 256)
        .with(Knob::L2_KIB, 512);
    let sweep = Sweep::grid(vec![Arc::clone(&mix)], vec![scenario.clone()]);
    let from_sweep = sweep.runner().run().into_reports();
    let direct = run_workload(mix.as_ref(), &scenario);
    assert_eq!(format!("{:?}", from_sweep[0]), format!("{direct:?}"));
    assert!(direct.validated, "{:?}", direct.validation_error);
}

/// The bit-identity guarantee at scale: a 2048-point synthetic grid (256
/// axpy instances at distinct working-set sizes × 8 configurations) run at
/// 8 workers must match the serial run on every point and come back in
/// grid order. On this grid the claim cursor is contended for far longer
/// than on the 42-point acceptance grid.
#[test]
fn eight_workers_are_bit_identical_to_serial_on_a_two_thousand_point_grid() {
    let workloads: Vec<SharedWorkload> = (0..256)
        .map(|i| Arc::new(Axpy::new(64 + i * 2)) as SharedWorkload)
        .collect();
    let systems = vec![
        ScenarioConfig::native_x(1),
        ScenarioConfig::native_x(4),
        ScenarioConfig::ava_x(1),
        ScenarioConfig::ava_x(2),
        ScenarioConfig::ava_x(4),
        ScenarioConfig::ava_x(8),
        ScenarioConfig::rg_lmul(Lmul::M2),
        ScenarioConfig::rg_lmul(Lmul::M8),
    ];
    let sweep = Sweep::grid(workloads, systems);
    assert_eq!(sweep.len(), 2048);

    let serial = sweep.runner().threads(1).run();
    let parallel = sweep.runner().threads(8).run();
    assert_eq!(serial.reports.len(), parallel.reports.len());
    for (s, p) in serial.reports.iter().zip(&parallel.reports) {
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "{} on {}: 8-worker run must match serial",
            s.workload,
            s.config
        );
    }
    // Results come back in grid order regardless of execution order.
    for (i, r) in parallel.reports.iter().enumerate() {
        assert_eq!(r.workload, sweep.workloads()[i / 8].name());
    }
}
