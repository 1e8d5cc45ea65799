//! The vector-length lattice and its lints.
//!
//! Straight-line kernels change VL only through `SetVl`, so a forward pass
//! can know the exact vector length in force at every instruction. The
//! lattice has three points: [`VlState::Unknown`] before any `SetVl` (a
//! previously-run kernel may have left *any* VL behind), [`VlState::Max`]
//! after a `vsetvlmax`-style request, and [`VlState::Exact`] otherwise.
//!
//! Two pattern lints live here:
//!
//! * **AVA001** — a splat executed while VL is [`VlState::Unknown`]. The
//!   original PR 3 bug: loop-invariant constants splatted before the
//!   `vsetvl` preamble only fill however many lanes the previous kernel
//!   left enabled, corrupting every strip that runs wider.
//! * **AVA004** — a VL narrowing not followed by a reset before a wider
//!   consumer that *materialises* the stale lanes. The pass tracks, per
//!   register, how many lanes were validly computed (elementwise ops
//!   propagate the minimum of their VL and their operands' valid widths)
//!   and flags stores and reductions that consume lanes beyond that width.
//!   Consuming a narrow value elementwise at a wider VL is deliberately
//!   *not* flagged on its own — the cross-strip accumulator idiom does
//!   exactly that, and its stale lanes are harmless until (unless) a wide
//!   store or reduction folds them into an observable result.

use crate::ir::IrKernel;

use super::diagnostics::{Code, Diagnostic};
use ava_isa::Opcode;

/// Abstract vector length at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VlState {
    /// No `SetVl` has executed yet; the inherited VL is arbitrary.
    Unknown,
    /// VL equals the hardware maximum (the request was `>= MVL`).
    Max,
    /// VL is exactly this many elements.
    Exact(usize),
}

impl VlState {
    /// The concrete element count, if one is known. `mvl` supplies the
    /// hardware maximum for resolving [`VlState::Max`]; pass `None` when
    /// the target MVL is not pinned down.
    #[must_use]
    pub fn width(self, mvl: Option<usize>) -> Option<usize> {
        match self {
            VlState::Unknown => None,
            VlState::Max => mvl,
            VlState::Exact(n) => Some(n),
        }
    }
}

/// Walks `kernel` once, tracking [`VlState`] and emitting AVA001/AVA004
/// into `diags`, on hardware with the given maximum VL (pass `None` to
/// analyse portably across MVLs). Returns the state *before* each
/// instruction: index `i` is the vector length in force on entry to
/// `kernel.instrs[i]`, which the memory checks need at every access.
pub(crate) fn vl_trace(
    kernel: &IrKernel,
    mvl: Option<usize>,
    diags: &mut Vec<Diagnostic>,
) -> Vec<VlState> {
    // Per-register count of validly-computed lanes (`usize::MAX` when
    // unbounded/unknown — unknown widths stay silent rather than guess).
    let mut valid = vec![usize::MAX; kernel.num_virt_regs as usize];
    let mut state = VlState::Unknown;
    let mut trace = Vec::with_capacity(kernel.len());
    for (idx, instr) in kernel.instrs.iter().enumerate() {
        trace.push(state);
        if let Some(req) = instr.setvl_request {
            state = match mvl {
                Some(m) if req >= m => VlState::Max,
                _ => VlState::Exact(req),
            };
            continue;
        }
        if instr.opcode == Opcode::VMvSplat && state == VlState::Unknown {
            diags.push(Diagnostic::new(
                Code::SplatBeforeSetVl,
                idx,
                "splat executes before any vsetvl, so it only fills the lanes a \
                 previously-run kernel left enabled"
                    .to_string(),
            ));
        }

        // Narrowest validly-computed source width (registers only; scalar
        // operands cover every lane by construction).
        let mut src_valid = usize::MAX;
        let mut narrowest = None;
        let index_reg = instr.mem.and_then(|m| m.index);
        for r in instr.source_regs().chain(index_reg) {
            let v = valid.get(r.id()).copied().unwrap_or(usize::MAX);
            if v < src_valid {
                src_valid = v;
                narrowest = Some(r);
            }
        }

        let w = state.width(mvl).unwrap_or(usize::MAX);
        // Stores and reductions materialise every lane below VL: stale
        // lanes escape into memory or fold into the reduced result.
        let consumes_all_lanes = instr.opcode.is_store()
            || matches!(
                instr.opcode,
                Opcode::VFRedSum | Opcode::VFRedMax | Opcode::VFRedMin
            );
        if consumes_all_lanes && w != usize::MAX && w > src_valid {
            let r = narrowest.expect("a finite valid width implies a register source");
            diags.push(Diagnostic::new(
                Code::NarrowDefWideUse,
                idx,
                format!(
                    "{r} has only {src_valid} validly-computed lane(s) but this \
                     {} runs at VL {w}; the VL was narrowed without a reset \
                     before a wider consumer, so stale lanes escape",
                    if instr.opcode.is_store() {
                        "store"
                    } else {
                        "reduction"
                    },
                ),
            ));
        }

        if let Some(d) = instr.dst {
            if d.id() >= valid.len() {
                valid.resize(d.id() + 1, usize::MAX);
            }
            let fills_from_memory = instr.opcode.is_load() && index_reg.is_none();
            valid[d.id()] = if consumes_all_lanes || fills_from_memory {
                // Reductions report their contamination above (one root
                // cause, one finding) and then count as fully defined;
                // unit/strided loads fill every lane below VL from memory.
                w
            } else {
                // Elementwise ops (and gathers, through their index) are
                // only valid where all their register operands were.
                w.min(src_valid)
            };
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    fn lint(k: &IrKernel, mvl: Option<usize>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        vl_trace(k, mvl, &mut diags);
        diags
    }

    #[test]
    fn width_resolves_against_mvl() {
        assert_eq!(VlState::Unknown.width(Some(16)), None);
        assert_eq!(VlState::Max.width(Some(16)), Some(16));
        assert_eq!(VlState::Max.width(None), None);
        assert_eq!(VlState::Exact(4).width(None), Some(4));
    }

    #[test]
    fn splat_after_setvl_is_clean() {
        let mut b = KernelBuilder::new("ok");
        b.set_vl(16);
        let c = b.vsplat(2.0);
        let x = b.vload(0x1000);
        let r = b.vfmul(x, c);
        b.vstore(r, 0x2000);
        assert!(lint(&b.finish(), Some(16)).is_empty());
    }

    #[test]
    fn splat_before_setvl_trips_ava001() {
        let mut b = KernelBuilder::new("bad");
        let c = b.vsplat(2.0);
        b.set_vl(16);
        let x = b.vload(0x1000);
        let r = b.vfmul(x, c);
        b.vstore(r, 0x2000);
        let diags = lint(&b.finish(), Some(16));
        assert!(diags.iter().any(|d| d.code == Code::SplatBeforeSetVl));
    }

    #[test]
    fn narrow_def_stored_wider_trips_ava004() {
        let mut b = KernelBuilder::new("bad");
        b.set_vl(4);
        let x = b.vload(0x1000);
        b.set_vl(16);
        let r = b.vfadd(x, 1.0); // lanes 4..16 of r are stale
        b.vstore(r, 0x2000); // ...and this store materialises them
        let diags = lint(&b.finish(), Some(16));
        let d = diags
            .iter()
            .find(|d| d.code == Code::NarrowDefWideUse)
            .unwrap();
        assert_eq!(d.ir_index, 4);
    }

    #[test]
    fn narrow_def_reduced_wider_trips_ava004() {
        let mut b = KernelBuilder::new("bad");
        b.set_vl(4);
        let x = b.vload(0x1000);
        b.set_vl(16);
        let s = b.vfredsum(x); // folds 12 stale lanes into the sum
        b.set_vl(1);
        b.vstore(s, 0x2000);
        let diags = lint(&b.finish(), Some(16));
        let d = diags
            .iter()
            .find(|d| d.code == Code::NarrowDefWideUse)
            .unwrap();
        assert_eq!(d.ir_index, 3);
    }

    #[test]
    fn max_request_covers_later_narrow_strips() {
        // The shipped-kernel idiom: vsetvlmax preamble, splats, then
        // narrower tail strips consuming the wide constants.
        let mut b = KernelBuilder::new("ok");
        b.set_vl(16);
        let c = b.vsplat(0.5);
        b.set_vl(5);
        let x = b.vload(0x1000);
        let r = b.vfmul(x, c);
        b.vstore(r, 0x2000);
        assert!(lint(&b.finish(), Some(16)).is_empty());
    }

    #[test]
    fn accumulator_narrowed_then_rewidened_is_clean() {
        // The cross-strip accumulator idiom (lavamd, particlefilter,
        // swaptions): the accumulator picks up a narrow tail-strip width,
        // is re-consumed elementwise at a wider strip, and is finally
        // stored at VL 1 — its stale upper lanes never escape.
        let mut b = KernelBuilder::new("ok");
        b.set_vl(16);
        let mut acc = b.vsplat(0.0);
        for (off, vl) in [(0u64, 16), (128, 4), (160, 16)] {
            b.set_vl(vl);
            let x = b.vload(0x1000 + off);
            let s = b.vfredsum(x);
            acc = b.vfadd(acc, s);
        }
        b.set_vl(1);
        b.vstore(acc, 0x3000);
        assert!(lint(&b.finish(), Some(16)).is_empty());
    }

    #[test]
    fn contaminated_accumulator_stored_wide_is_flagged() {
        // Same idiom, but the final store runs at full VL: now the stale
        // lanes do escape, and the store is the anchor.
        let mut b = KernelBuilder::new("bad");
        b.set_vl(16);
        let acc = b.vsplat(0.0);
        b.set_vl(4);
        let x = b.vload(0x1000);
        let acc2 = b.vfadd(acc, x);
        b.set_vl(16);
        b.vstore(acc2, 0x3000);
        let diags = lint(&b.finish(), Some(16));
        let d = diags
            .iter()
            .find(|d| d.code == Code::NarrowDefWideUse)
            .unwrap();
        assert_eq!(d.ir_index, 6);
    }

    #[test]
    fn unknown_mvl_keeps_requests_exact() {
        let mut b = KernelBuilder::new("k");
        b.set_vl(64);
        let c = b.vsplat(1.0);
        b.set_vl(16);
        let x = b.vload(0x1000);
        let r = b.vfmul(x, c);
        b.vstore(r, 0x2000);
        // Without a pinned MVL the preamble stays Exact(64), which still
        // covers the Exact(16) consumer.
        assert!(lint(&b.finish(), None).is_empty());
    }

    #[test]
    fn trace_records_the_state_on_entry_to_each_instruction() {
        let mut b = KernelBuilder::new("k");
        b.set_vl(64);
        let c = b.vsplat(1.0);
        b.set_vl(8);
        b.vstore(c, 0x2000);
        let k = b.finish();
        let trace = vl_trace(&k, Some(16), &mut Vec::new());
        assert_eq!(
            trace,
            vec![
                VlState::Unknown,
                VlState::Max,
                VlState::Max,
                VlState::Exact(8)
            ]
        );
    }
}
