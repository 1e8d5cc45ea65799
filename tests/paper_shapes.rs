//! Integration tests for the qualitative results of the paper's evaluation:
//! the orderings, crossovers and approximate factors of Figures 3 and 4 and
//! Tables I and V. Absolute cycle counts differ from the paper (our
//! substrate is a from-scratch simulator, not the authors' gem5 testbed);
//! these tests pin down the *shapes* that must hold.

use ava::energy::{pnr_estimate, vpu_area};
use ava::isa::Lmul;
use ava::sim::{run_workload, RunReport, ScenarioConfig, Sweep};
use ava::vpu::{preg_count_for_mvl, VpuConfig};
use ava::workloads::{
    Axpy, Blackscholes, LavaMd2, ParticleFilter, SharedWorkload, Somier, Swaptions, Workload,
};
use std::sync::Arc;

fn speedup(workload: &dyn Workload, sys: &ScenarioConfig) -> f64 {
    let base = run_workload(workload, &ScenarioConfig::native_x(1));
    let this = run_workload(workload, sys);
    assert!(base.validated && this.validated);
    base.cycles as f64 / this.cycles as f64
}

// ----------------------------------------------------------------- Table I

#[test]
fn table1_physical_register_counts() {
    let expected = [
        (16, 64),
        (32, 32),
        (48, 21),
        (64, 16),
        (80, 12),
        (96, 10),
        (112, 9),
        (128, 8),
    ];
    for (mvl, pregs) in expected {
        assert_eq!(preg_count_for_mvl(8 * 1024, mvl), pregs);
    }
}

// --------------------------------------------------------------- Figure 3a (Axpy)

#[test]
fn axpy_reconfiguration_approaches_2x_and_matches_native() {
    let w = Axpy::new(4096);
    let ava8 = speedup(&w, &ScenarioConfig::ava_x(8));
    let native8 = speedup(&w, &ScenarioConfig::native_x(8));
    let rg8 = speedup(&w, &ScenarioConfig::rg_lmul(Lmul::M8));
    // Paper: all three reach ~2x over the short-vector baseline.
    assert!(ava8 > 1.7, "AVA X8 speedup {ava8}");
    assert!(
        (ava8 - native8).abs() / native8 < 0.05,
        "AVA X8 {ava8} vs NATIVE X8 {native8}"
    );
    assert!(
        (rg8 - native8).abs() / native8 < 0.10,
        "RG-LMUL8 {rg8} vs NATIVE X8 {native8}"
    );
    // And no spill or swap operations exist for this two-register kernel.
    let r = run_workload(&w, &ScenarioConfig::ava_x(8));
    assert_eq!(r.vpu.swap_ops() + r.vpu.spill_ops(), 0);
}

#[test]
fn axpy_speedup_grows_monotonically_with_mvl() {
    let w = Axpy::new(4096);
    let mut last = 0.0;
    for n in [1, 2, 3, 4, 8] {
        let s = speedup(&w, &ScenarioConfig::native_x(n));
        assert!(s >= last - 0.05, "NATIVE X{n} regressed: {s} < {last}");
        last = s;
    }
    assert!(last > 1.7, "NATIVE X8 should approach ~2x, got {last}");
}

// ------------------------------------------------------ Figure 3 (all kernels)

#[test]
fn ava_without_swaps_or_reclaims_matches_native_exactly() {
    // AVA's second-level mapping only costs time when the P-VRF overflows.
    // Wherever AVA Xn records no swap and no reclaim on a Figure 3 kernel,
    // its report is NATIVE Xn's apart from the scenario label and axes.
    // A sweep copies such a NATIVE point from its AVA twin, so each side
    // runs in a sweep of its own organisation: nothing here is a copy.
    let workloads: Vec<SharedWorkload> = vec![
        Arc::new(Axpy::new(4096)),
        Arc::new(Blackscholes::new(1024)),
        Arc::new(LavaMd2::new(48, 2)),
        Arc::new(ParticleFilter::new(2048, 64)),
        Arc::new(Somier::new(4096)),
        Arc::new(Swaptions::new(1024)),
    ];
    let xs = [1, 2, 3, 4, 8];
    let run = |preset: fn(usize) -> ScenarioConfig| {
        let sweep = Sweep::grid(workloads.clone(), xs.iter().map(|&x| preset(x)).collect());
        let run = sweep.runner().threads(2).execute();
        assert_eq!(run.reused(), 0, "one organisation proves no sibling here");
        run.report.into_reports()
    };
    let (natives, avas) = (run(ScenarioConfig::native_x), run(ScenarioConfig::ava_x));
    let unlabelled = |r: &RunReport| {
        let mut r = r.clone();
        r.config.clear();
        r.axes.clear();
        format!("{r:?}")
    };
    let mut equal = 0;
    for (native, ava) in natives.iter().zip(&avas) {
        assert!(native.validated && ava.validated, "{}", ava.workload);
        if ava.vpu.swap_ops() + ava.vpu.aggressive_reclaims == 0 {
            assert_eq!(
                unlabelled(native),
                unlabelled(ava),
                "{}: {} differs from {}",
                ava.workload,
                ava.config,
                native.config
            );
            equal += 1;
        }
    }
    assert_eq!(equal, 24, "AVA points with no swap and no reclaim");
}

// ------------------------------------------------------- Figure 3b (Blackscholes)

#[test]
fn blackscholes_ava_x2_needs_no_swaps_but_rg_lmul2_spills() {
    let w = Blackscholes::new(512);
    let ava2 = run_workload(&w, &ScenarioConfig::ava_x(2));
    assert_eq!(
        ava2.vpu.swap_ops(),
        0,
        "32 physical registers fit the kernel"
    );
    let rg2 = run_workload(&w, &ScenarioConfig::rg_lmul(Lmul::M2));
    assert!(rg2.vpu.spill_ops() > 0, "16 architectural registers do not");
}

#[test]
fn blackscholes_ava_swaps_stay_below_rg_spills() {
    // Paper §V: AVA schedules with twice the registers of the equivalent
    // LMUL configuration, so it produces fewer swap operations than the
    // compiler produces spill operations.
    let w = Blackscholes::new(512);
    for (ava, rg) in [
        (ScenarioConfig::ava_x(4), ScenarioConfig::rg_lmul(Lmul::M4)),
        (ScenarioConfig::ava_x(8), ScenarioConfig::rg_lmul(Lmul::M8)),
    ] {
        let a = run_workload(&w, &ava);
        let r = run_workload(&w, &rg);
        assert!(
            a.vpu.swap_ops() <= r.vpu.spill_ops() + r.vpu.spill_ops() / 10,
            "{}: swaps {} vs {} spills {}",
            ava.label(),
            a.vpu.swap_ops(),
            rg.label(),
            r.vpu.spill_ops()
        );
        assert!(a.memory_instructions() <= r.memory_instructions());
    }
}

#[test]
fn blackscholes_ava_x8_beats_rg_lmul8() {
    let w = Blackscholes::new(512);
    let ava = speedup(&w, &ScenarioConfig::ava_x(8));
    let rg = speedup(&w, &ScenarioConfig::rg_lmul(Lmul::M8));
    assert!(ava > rg, "AVA X8 {ava} should beat RG-LMUL8 {rg}");
    assert!(
        ava > 1.3,
        "AVA X8 should still clearly beat the baseline, got {ava}"
    );
}

// ----------------------------------------------------------- Figure 3c (LavaMD2)

#[test]
fn lavamd_peaks_at_x3_and_larger_mvls_add_nothing() {
    let w = LavaMd2::new(24, 2);
    let x1 = speedup(&w, &ScenarioConfig::ava_x(1));
    let x3 = speedup(&w, &ScenarioConfig::ava_x(3));
    let x4 = speedup(&w, &ScenarioConfig::ava_x(4));
    assert!((x1 - 1.0).abs() < 1e-9);
    assert!(x3 > 1.2, "48-element vectors need MVL=48, got {x3}");
    assert!(
        x4 <= x3 + 0.05,
        "beyond VL=48 nothing improves: X4 {x4} vs X3 {x3}"
    );
    // X3 needs no swaps: 21 physical registers cover the kernel.
    let r3 = run_workload(&w, &ScenarioConfig::ava_x(3));
    assert_eq!(r3.vpu.swap_ops(), 0);
}

#[test]
fn lavamd_rg_lmul8_collapses_under_full_mvl_spill_code() {
    let w = LavaMd2::new(24, 2);
    let rg8 = run_workload(&w, &ScenarioConfig::rg_lmul(Lmul::M8));
    let rg8_speedup = speedup(&w, &ScenarioConfig::rg_lmul(Lmul::M8));
    // Paper: RG-LMUL8 drops below the baseline (0.48x) because spill code
    // executes at MVL=128 while the application only uses 48 elements.
    assert!(
        rg8_speedup < 1.0,
        "RG-LMUL8 should fall below 1.0x, got {rg8_speedup}"
    );
    assert!(
        rg8.vpu.spill_ops() > rg8.vpu.vloads + rg8.vpu.vstores,
        "spill code should dominate the memory stream"
    );
    // AVA X8 also degrades but stays well above RG-LMUL8.
    let ava8 = speedup(&w, &ScenarioConfig::ava_x(8));
    assert!(
        ava8 > rg8_speedup,
        "AVA X8 {ava8} vs RG-LMUL8 {rg8_speedup}"
    );
}

// ----------------------------------------- Figure 3d/3e (Particle Filter, Somier)

#[test]
fn particlefilter_and_somier_scale_with_mvl_without_spills_until_the_extremes() {
    let pf = ParticleFilter::new(1024, 64);
    let so = Somier::new(2048);
    for n in [2usize, 4] {
        let r_pf = run_workload(&pf, &ScenarioConfig::ava_x(n));
        let r_so = run_workload(&so, &ScenarioConfig::ava_x(n));
        assert_eq!(r_pf.vpu.swap_ops(), 0, "particle filter AVA X{n}");
        assert_eq!(r_so.vpu.swap_ops(), 0, "somier AVA X{n}");
    }
    assert!(speedup(&pf, &ScenarioConfig::ava_x(4)) > 1.4);
    assert!(speedup(&so, &ScenarioConfig::ava_x(8)) > 1.6);
}

#[test]
fn somier_spills_only_at_lmul8() {
    let so = Somier::new(2048);
    assert_eq!(
        run_workload(&so, &ScenarioConfig::rg_lmul(Lmul::M4))
            .vpu
            .spill_ops(),
        0
    );
    assert!(
        run_workload(&so, &ScenarioConfig::rg_lmul(Lmul::M8))
            .vpu
            .spill_ops()
            > 0
    );
}

// --------------------------------------------------------- Figure 3f (Swaptions)

#[test]
fn swaptions_ava_outperforms_rg_at_every_grouping_factor() {
    let w = Swaptions::new(512);
    for (ava, rg) in [
        (ScenarioConfig::ava_x(4), ScenarioConfig::rg_lmul(Lmul::M4)),
        (ScenarioConfig::ava_x(8), ScenarioConfig::rg_lmul(Lmul::M8)),
    ] {
        let s_ava = speedup(&w, &ava);
        let s_rg = speedup(&w, &rg);
        assert!(
            s_ava > s_rg,
            "{}: {s_ava} vs {}: {s_rg}",
            ava.label(),
            rg.label()
        );
    }
}

// ------------------------------------------------------------------- Figure 4

#[test]
fn ava_saves_roughly_half_the_vpu_area_of_native_x8() {
    let ava = vpu_area(&VpuConfig::ava_x(8)).total();
    let native = vpu_area(&VpuConfig::native_x(8)).total();
    let saving = 1.0 - ava / native;
    assert!(
        (0.4..0.65).contains(&saving),
        "paper reports ~53 %, got {saving:.2}"
    );
    // The AVA structures themselves are a negligible fraction.
    let overhead =
        vpu_area(&VpuConfig::ava_x(1)).ava_structures / vpu_area(&VpuConfig::ava_x(1)).total();
    assert!(overhead < 0.01, "paper reports 0.55 %, got {overhead:.4}");
}

// -------------------------------------------------------------------- Table V

#[test]
fn pnr_estimates_reproduce_table_v_relationships() {
    let ava = pnr_estimate(&VpuConfig::ava_x(8));
    let native = pnr_estimate(&VpuConfig::native_x(8));
    assert!(ava.meets_timing() && !native.meets_timing());
    assert!(ava.area_mm2 < 0.65 * native.area_mm2);
    assert!(ava.power_mw < native.power_mw);
}
