//! # Static IR verification and diagnostics (`ava-lint`)
//!
//! Every real model bug found while growing the workload suite — the
//! pre-`vsetvl` splat corruption, the wrong-buffer rebase in pipelined
//! composites, the mis-wired ping-pong carry — was caught only by runtime
//! validation failures deep inside a sweep. This module catches those bug
//! classes *statically*, before any simulation runs, with a forward
//! dataflow over the straight-line IR:
//!
//! | Code   | Severity | Finding |
//! |--------|----------|---------|
//! | AVA001 | error    | splat before any `vsetvl` |
//! | AVA002 | error    | access to a placeholder arena no rebase rule covered |
//! | AVA003 | error    | carried or linked buffer read after in-place destruction |
//! | AVA004 | warn     | narrow-VL value's stale lanes escape via a wider store/reduction |
//! | AVA101 | error    | register used before definition |
//! | AVA102 | error    | register redefined (SSA violation) |
//! | AVA103 | info     | dead store (fully overwritten, never read) |
//! | AVA104 | warn     | register defined but never used |
//! | AVA201 | error    | access outside every planned arena |
//! | AVA202 | error    | access runs past its owning arena |
//!
//! The entry point is [`analyze`]; `ava-workloads` wires it into
//! `Workload::verify()` and runs it deny-by-default inside the composite
//! constructors.
//!
//! ```
//! use ava_compiler::analysis::{analyze, AnalysisInput, Code, Severity};
//! use ava_compiler::KernelBuilder;
//!
//! let mut b = KernelBuilder::new("bad");
//! let c = b.vsplat(2.0); // splat before vsetvl: the PR 3 bug class
//! b.set_vl(16);
//! let x = b.vload(0x1000);
//! let r = b.vfmul(x, c);
//! b.vstore(r, 0x2000);
//!
//! let report = analyze(&b.finish(), &AnalysisInput::new(Some(16)));
//! assert!(report.has(Code::SplatBeforeSetVl));
//! assert!(!report.is_clean(Severity::Warn));
//! ```

mod dataflow;
pub mod diagnostics;
pub mod mem_bounds;
pub mod vl_state;

use dataflow::check_ssa;
pub use diagnostics::{AnalysisReport, Code, Diagnostic, Severity};
pub use mem_bounds::{check_memory, Arena};
use vl_state::vl_trace;
pub use vl_state::VlState;

use crate::ir::IrKernel;

/// Everything the analyzer knows about the world outside the kernel.
#[derive(Debug, Clone, Default)]
pub struct AnalysisInput {
    /// The hardware maximum vector length, if pinned down; resolves
    /// [`VlState::Max`] and widens `vsetvlmax`-style requests.
    pub mvl: Option<usize>,
    /// The planned memory regions. When empty, the memory checks (AVA002,
    /// AVA003, AVA103, AVA201, AVA202) are skipped — there is no layout to
    /// check against.
    pub arenas: Vec<Arena>,
    /// IR index one past each composite phase, in order. Empty for a plain
    /// kernel (one span).
    pub phase_ends: Vec<usize>,
}

impl AnalysisInput {
    /// An input with no layout information: VL and SSA checks only.
    #[must_use]
    pub fn new(mvl: Option<usize>) -> Self {
        Self {
            mvl,
            arenas: Vec::new(),
            phase_ends: Vec::new(),
        }
    }

    /// Adds the planned arenas.
    #[must_use]
    pub fn with_arenas(mut self, arenas: Vec<Arena>) -> Self {
        self.arenas = arenas;
        self
    }

    /// Adds the composite phase boundaries.
    #[must_use]
    pub fn with_phase_ends(mut self, ends: Vec<usize>) -> Self {
        self.phase_ends = ends;
        self
    }
}

/// Runs every analysis over `kernel` and returns the combined report,
/// sorted by IR index.
#[must_use]
pub fn analyze(kernel: &IrKernel, input: &AnalysisInput) -> AnalysisReport {
    let mut diags = Vec::new();
    check_ssa(kernel, &mut diags);
    let vl_at = vl_trace(kernel, input.mvl, &mut diags);
    if !input.arenas.is_empty() {
        check_memory(
            kernel,
            &vl_at,
            input.mvl,
            &input.arenas,
            &input.phase_ends,
            &mut diags,
        );
    }
    diags.sort_by_key(|d| (d.ir_index, d.code));
    AnalysisReport {
        kernel: kernel.name.clone(),
        diagnostics: diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    #[test]
    fn clean_kernel_produces_an_empty_report() {
        let mut b = KernelBuilder::new("ok");
        b.set_vl(8);
        let x = b.vload(0x1000);
        let y = b.vfadd(x, 1.0);
        b.vstore(y, 0x2000);
        let report = analyze(
            &b.finish(),
            &AnalysisInput::new(Some(16)).with_arenas(vec![
                Arena::new("x", 0x1000, 0x80),
                Arena::new("y", 0x2000, 0x80),
            ]),
        );
        assert_eq!(report.kernel, "ok");
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn findings_arrive_sorted_by_ir_index() {
        let mut b = KernelBuilder::new("bad");
        let c = b.vsplat(1.0); // AVA001 at ir[0], AVA104 (never used) too
        b.set_vl(8);
        let x = b.vload(0x9000); // AVA201 at ir[2]
        b.vstore(x, 0x9100); // AVA201 at ir[3]
        let _ = c;
        let report = analyze(
            &b.finish(),
            &AnalysisInput::new(Some(16)).with_arenas(vec![Arena::new("a", 0x1000, 0x80)]),
        );
        let idxs: Vec<usize> = report.diagnostics.iter().map(|d| d.ir_index).collect();
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        assert_eq!(idxs, sorted);
        assert!(report.has(Code::SplatBeforeSetVl));
        assert!(report.has(Code::UnusedDef));
        assert!(report.has(Code::OutOfArena));
    }

    #[test]
    fn empty_arena_list_skips_memory_checks() {
        let mut b = KernelBuilder::new("k");
        b.set_vl(8);
        let x = b.vload(0xdead_0000);
        b.vstore(x, 0xbeef_0000);
        let report = analyze(&b.finish(), &AnalysisInput::new(Some(16)));
        assert!(report.diagnostics.is_empty(), "{report}");
    }
}
