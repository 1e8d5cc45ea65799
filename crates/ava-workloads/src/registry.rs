//! Name-indexed constructors for the shipped kernels.
//!
//! The experiment-manifest layer (`ava-bench`'s `spec` module) describes
//! workloads as data — `{"name": "axpy", "n": 4096}` — and needs to turn
//! those entries back into [`SharedWorkload`] instances. This module is the
//! single place that mapping lives: every kernel of the suite is registered
//! here under its canonical name together with its default problem size, so
//! a manifest can name a kernel without repeating the sizes the evaluation
//! uses, and an unknown name is a diagnosable error rather than a panic.
//!
//! The composite mixes that combine kernels (`pipelined`, `solver`) are
//! *not* registered here — they are wiring, not kernels, and live with the
//! experiment harness in `ava-bench`.

use std::sync::Arc;

use crate::{
    Axpy, Blackscholes, Composite, LavaMd2, ParticleFilter, SharedWorkload, Somier, Swaptions,
};

/// The canonical kernel names [`build_kernel`] accepts, in suite order.
/// `composite` is the three-kernel cache-sharing mix of the sensitivity
/// study (axpy + blackscholes + somier on one warm hierarchy).
pub const KERNEL_NAMES: [&str; 7] = [
    "axpy",
    "blackscholes",
    "lavamd2",
    "particlefilter",
    "somier",
    "swaptions",
    "composite",
];

/// The default `(n, m)` parameters of a registered kernel: `n` is the
/// primary problem size (elements, options, particles, ...), `m` the
/// secondary one where the constructor takes two (LavaMD's neighbour count,
/// Particle Filter's grid size; `None` elsewhere). The defaults are the
/// paper-evaluation sizes of the Figure 3 / Figure 4 manifests, except
/// `composite`, which defaults to the sensitivity-study mix size.
///
/// Returns `None` for names not in [`KERNEL_NAMES`].
#[must_use]
pub fn kernel_defaults(name: &str) -> Option<(usize, Option<usize>)> {
    match name {
        "axpy" => Some((4096, None)),
        "blackscholes" => Some((1024, None)),
        "lavamd2" => Some((48, Some(2))),
        "particlefilter" => Some((2048, Some(64))),
        "somier" => Some((4096, None)),
        "swaptions" => Some((1024, None)),
        "composite" => Some((16384, None)),
        _ => None,
    }
}

/// Checks a kernel entry's parameters without building it and returns the
/// resolved `(n, m)`: `n` and `m` override the defaults of
/// [`kernel_defaults`], and an `m` for a single-parameter kernel is
/// rejected so a manifest cannot silently carry a knob that does nothing.
///
/// # Errors
///
/// Returns a diagnostic for an unknown name, a zero size, a stray `m`, or a
/// `composite` size too small to split across its three phases.
pub fn check_kernel(
    name: &str,
    n: Option<usize>,
    m: Option<usize>,
) -> Result<(usize, usize), String> {
    let (default_n, default_m) = kernel_defaults(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (known kernels: {})",
            KERNEL_NAMES.join(", ")
        )
    })?;
    if m.is_some() && default_m.is_none() {
        return Err(format!("workload {name:?} takes no second parameter m"));
    }
    let n = n.unwrap_or(default_n);
    if n == 0 {
        return Err(format!("workload {name:?} needs a non-zero size n"));
    }
    if name == "composite" && n < 4 {
        return Err(format!(
            "workload \"composite\" needs n >= 4 to split across its phases, got {n}"
        ));
    }
    Ok((n, m.or(default_m).unwrap_or(0)))
}

/// Builds a registered kernel by name: [`check_kernel`], then construction.
///
/// The `composite` mix is parameterised by its axpy length `n`: it builds
/// `Composite::new([Axpy(n), Blackscholes(n/4), Somier(n/2)])`, which at the
/// default `n = 16384` reproduces the sensitivity-study mix exactly.
///
/// # Errors
///
/// As [`check_kernel`].
pub fn build_kernel(
    name: &str,
    n: Option<usize>,
    m: Option<usize>,
) -> Result<SharedWorkload, String> {
    let (n, m) = check_kernel(name, n, m)?;
    Ok(match name {
        "axpy" => Arc::new(Axpy::new(n)),
        "blackscholes" => Arc::new(Blackscholes::new(n)),
        "lavamd2" => Arc::new(LavaMd2::new(n, m)),
        "particlefilter" => Arc::new(ParticleFilter::new(n, m)),
        "somier" => Arc::new(Somier::new(n)),
        "swaptions" => Arc::new(Swaptions::new(n)),
        "composite" => Arc::new(Composite::new(vec![
            Arc::new(Axpy::new(n)),
            Arc::new(Blackscholes::new(n / 4)),
            Arc::new(Somier::new(n / 2)),
        ])),
        _ => unreachable!("name was validated against KERNEL_NAMES"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn every_registered_name_builds_with_defaults() {
        for name in KERNEL_NAMES {
            let w = build_kernel(name, None, None).unwrap();
            assert_eq!(w.name(), name, "registry name must match Workload::name");
            assert!(w.elements() > 0);
        }
    }

    #[test]
    fn explicit_sizes_override_the_defaults() {
        let w = build_kernel("axpy", Some(256), None).unwrap();
        assert_eq!(w.elements(), Axpy::new(256).elements());
        let lava = build_kernel("lavamd2", Some(16), Some(2)).unwrap();
        assert_eq!(lava.name(), "lavamd2");
    }

    #[test]
    fn unknown_names_and_bad_parameters_are_diagnosed() {
        let err = build_kernel("axpyz", None, None).err().unwrap();
        assert!(
            err.contains("axpyz") && err.contains("known kernels"),
            "{err}"
        );
        let err = build_kernel("axpy", Some(0), None).err().unwrap();
        assert!(err.contains("non-zero"), "{err}");
        let err = build_kernel("axpy", None, Some(3)).err().unwrap();
        assert!(err.contains("no second parameter"), "{err}");
        let err = build_kernel("composite", Some(2), None).err().unwrap();
        assert!(err.contains("n >= 4"), "{err}");
    }

    #[test]
    fn composite_default_matches_the_sensitivity_mix() {
        let w = build_kernel("composite", None, None).unwrap();
        let reference = Composite::new(vec![
            Arc::new(Axpy::new(16384)),
            Arc::new(Blackscholes::new(4096)),
            Arc::new(Somier::new(8192)),
        ]);
        assert_eq!(w.elements(), reference.elements());
    }
}
