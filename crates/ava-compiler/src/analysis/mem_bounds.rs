//! Static address-interval analysis of vector memory traffic.
//!
//! Kernels carry concrete simulated addresses, and the VL pass knows the
//! exact vector length at every access, so each unit-stride load or store
//! denotes a byte interval that can be checked against
//! the planned arenas *before any simulation runs*:
//!
//! * **AVA201** — the base address falls inside no arena at all.
//! * **AVA202** — the interval starts inside an arena but runs past it.
//! * **AVA002** — the access lands in a *placeholder* arena (a composite
//!   consumer input that a rebase rule should have redirected onto the
//!   producer's buffer — the PR 4 wrong-buffer-rebase bug class).
//! * **AVA003** — a *destroy-tracked* arena (a composite's carried or
//!   linked buffer) is read after an overlapping store in the same phase
//!   span already overwrote the value it carries to or from another phase.
//! * **AVA103** — a store whose bytes are completely overwritten by a later
//!   store with no intervening load (a dead store).
//!
//! Gathers and accesses under an unknown VL degrade gracefully to
//! base-containment checks plus conservative whole-arena bookkeeping.

use std::collections::BTreeMap;

use crate::ir::IrKernel;

use super::diagnostics::{Code, Diagnostic, Severity};
use super::vl_state::VlState;

/// One planned memory region the analyzer checks accesses against.
///
/// This is a layout-neutral mirror of a planned buffer: the `ava-workloads`
/// crate converts its `PlannedLayout` into arenas so the analysis can live
/// in the compiler without a dependency cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arena {
    /// Buffer name (composite arenas carry their `p{i}.` phase prefix).
    pub name: String,
    /// First byte of the region.
    pub start: u64,
    /// One past the last byte of the region.
    pub end: u64,
    /// True for a composite consumer input that is never materialised:
    /// every access to it should have been rebased away, so any remaining
    /// access is the wrong-buffer-rebase bug (AVA002).
    pub placeholder: bool,
    /// True for a buffer whose contents flow between composite phases: an
    /// iterated composite's carried buffer, or a pipeline producer's
    /// output that a later phase consumes through a link. Reading it after
    /// an in-place overwrite within one phase span reads a value that no
    /// longer flows between the phases (AVA003).
    pub destroy_tracked: bool,
}

impl Arena {
    /// A plain arena covering `bytes` bytes from `start`.
    #[must_use]
    pub fn new(name: impl Into<String>, start: u64, bytes: u64) -> Self {
        Self {
            name: name.into(),
            start,
            end: start + bytes,
            placeholder: false,
            destroy_tracked: false,
        }
    }

    /// Marks this arena as a never-materialised placeholder.
    #[must_use]
    pub fn as_placeholder(mut self) -> Self {
        self.placeholder = true;
        self
    }

    /// Marks this arena as carried or linked between composite phases.
    #[must_use]
    pub fn as_destroy_tracked(mut self) -> Self {
        self.destroy_tracked = true;
        self
    }

    /// True if `addr` falls inside the region.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }
}

/// True when `[s1, e1)` and `[s2, e2)` share at least one byte.
fn overlaps(s1: u64, e1: u64, s2: u64, e2: u64) -> bool {
    s1 < e2 && s2 < e1
}

/// Exact unit-stride stores not yet observed by any load: start ->
/// (end, ir_index, phase span).
type Pending = BTreeMap<u64, (u64, usize, usize)>;

/// Replaces `starts` with the starts of the pending stores that overlap
/// `[lo, hi)`, ascending.
///
/// Every store removes the pending stores it overlaps before it is
/// inserted, so no two pending stores overlap. The candidates are then the
/// stores starting in `lo..hi` and the last one starting before `lo`: any
/// earlier store that reached `lo` would overlap that last one.
fn overlapping(pending: &Pending, lo: u64, hi: u64, starts: &mut Vec<u64>) {
    starts.clear();
    starts.extend(
        pending
            .range(..lo)
            .next_back()
            .into_iter()
            .chain(pending.range(lo..hi))
            .filter(|(&s, &(e, ..))| overlaps(s, e, lo, hi))
            .map(|(&s, _)| s),
    );
}

/// The stores into one destroy-tracked arena in the current phase span.
#[derive(Debug, Clone, Default)]
struct Written {
    /// `(start, end, ir_index)` in program order, so a diagnostic names the
    /// earliest store that overlaps a read.
    stores: Vec<(u64, u64, usize)>,
    /// The stores' intervals merged into runs, start -> end: intervals
    /// that overlap or touch share a run, so runs neither overlap nor
    /// touch. Every read that overlaps a store overlaps the run holding
    /// it, so one lookup clears every other read without a scan.
    runs: BTreeMap<u64, u64>,
}

impl Written {
    fn clear(&mut self) {
        self.stores.clear();
        self.runs.clear();
    }

    fn insert(&mut self, lo: u64, hi: u64, idx: usize) {
        self.stores.push((lo, hi, idx));
        // Runs starting in `[lo, hi]` join the new one. Runs never touch,
        // so the join cannot reach the run after the last of them.
        let absorbed: Vec<(u64, u64)> = self.runs.range(lo..=hi).map(|(&s, &e)| (s, e)).collect();
        let mut end = hi;
        for (s, e) in absorbed {
            self.runs.remove(&s);
            end = end.max(e);
        }
        // A run starting before `lo` that reaches it takes the join; a
        // strip-mined loop's next strip lands here.
        match self.runs.range_mut(..lo).next_back() {
            Some((_, e)) if *e >= lo => *e = end.max(*e),
            _ => {
                self.runs.insert(lo, end);
            }
        }
    }

    /// The earliest store overlapping `[lo, hi)`, if any. A run can
    /// overlap a read that none of its stores overlaps (a zero-length read
    /// at the seam of two touching stores), so a hit is confirmed on the
    /// stores themselves.
    fn first_overlap(&self, lo: u64, hi: u64) -> Option<(u64, u64, usize)> {
        // Runs do not overlap, so the last one starting before `hi` is the
        // only one that can reach past `lo`.
        let hit = self
            .runs
            .range(..hi)
            .next_back()
            .is_some_and(|(_, &e)| lo < e);
        if !hit {
            return None;
        }
        self.stores
            .iter()
            .find(|&&(ws, we, _)| overlaps(ws, we, lo, hi))
            .copied()
    }
}

/// Checks every memory access of `kernel` against `arenas`.
///
/// `vl_at[i]` must be the [`VlState`] in force on entry to instruction `i`
/// (from a traced VL pass); `mvl` resolves [`VlState::Max`]. `phase_ends`
/// lists the IR index one past each composite phase (empty for a plain
/// kernel); the read-after-destroy bookkeeping resets at those boundaries,
/// because reading what the *previous* phase wrote is exactly how carried
/// and linked values flow.
///
/// The pass is linear in the kernel up to logarithmic map lookups: each
/// access looks up the few pending stores and written runs it can overlap
/// instead of scanning them all.
pub fn check_memory(
    kernel: &IrKernel,
    vl_at: &[VlState],
    mvl: Option<usize>,
    arenas: &[Arena],
    phase_ends: &[usize],
    diags: &mut Vec<Diagnostic>,
) {
    // Per-arena stores of the current phase span (read for destroy-tracked
    // arenas only, so only those are recorded).
    let mut written: Vec<Written> = vec![Written::default(); arenas.len()];
    // Per-arena pending stores. Never reset — a store observed only in a
    // later phase is still observed.
    let mut pending: Vec<Pending> = vec![BTreeMap::new(); arenas.len()];
    // Scratch for the overlapping pending stores of one access.
    let mut starts = Vec::new();
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

        // The byte interval, when the access shape is statically known.
        let width = vl_at.get(idx).and_then(|s| s.width(mvl));
        let interval: Option<(u64, u64)> = match (m.index, width) {
            (Some(_), _) | (_, None) => None,
            (None, Some(n)) => {
                let (lo, hi) = (m.base, m.base.saturating_add(8 * n as u64));
                if hi > arena.end {
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
                Some((lo, hi))
            }
        };
        // Conservative bookkeeping shape: the whole arena.
        let (lo, hi) = interval.unwrap_or((arena.start, arena.end));
        let exact_unit = interval.is_some();

        if is_store {
            // Dead-store accounting: a pending store fully covered by this
            // one, with no load in between, never mattered. When the
            // overwrite happens in a *later phase span*, the earlier store
            // is an intermediate result of an unrolled loop, superseded by
            // design — report it at info only.
            overlapping(&pending[ai], lo, hi, &mut starts);
            for &s in &starts {
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
            if arena.destroy_tracked {
                written[ai].insert(lo, hi, idx);
            }
        } else {
            if arena.destroy_tracked {
                if let Some((ws, we, widx)) = written[ai].first_overlap(lo, hi) {
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
            // The load observes any pending store it touches.
            overlapping(&pending[ai], lo, hi, &mut starts);
            for s in &starts {
                pending[ai].remove(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::vl_state::vl_trace;
    use crate::KernelBuilder;

    fn check(k: &IrKernel, arenas: &[Arena], phase_ends: &[usize]) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let vl_at = vl_trace(k, Some(16), &mut diags);
        check_memory(k, &vl_at, Some(16), arenas, phase_ends, &mut diags);
        diags
    }

    #[test]
    fn in_bounds_unit_stride_is_clean() {
        let mut b = KernelBuilder::new("ok");
        b.set_vl(16);
        let x = b.vload(0x1000);
        b.vstore(x, 0x2000);
        let diags = check(
            &b.finish(),
            &[Arena::new("x", 0x1000, 128), Arena::new("y", 0x2000, 128)],
            &[],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unplanned_base_trips_ava201() {
        let mut b = KernelBuilder::new("bad");
        b.set_vl(8);
        let x = b.vload(0x9000);
        b.vstore(x, 0x1000);
        let diags = check(&b.finish(), &[Arena::new("y", 0x1000, 64)], &[]);
        assert!(diags.iter().any(|d| d.code == Code::OutOfArena));
    }

    #[test]
    fn overrunning_access_trips_ava202() {
        let mut b = KernelBuilder::new("bad");
        b.set_vl(16); // 128 bytes from 0x1040 runs past 0x1080
        let x = b.vload(0x1040);
        b.vstore(x, 0x2000);
        let diags = check(
            &b.finish(),
            &[Arena::new("x", 0x1000, 0x80), Arena::new("y", 0x2000, 0x80)],
            &[],
        );
        let d = diags
            .iter()
            .find(|d| d.code == Code::StraddlesArena)
            .unwrap();
        assert_eq!(d.ir_index, 1);
    }

    #[test]
    fn placeholder_access_trips_ava002() {
        let mut b = KernelBuilder::new("bad");
        b.set_vl(8);
        let x = b.vload(0x5000);
        b.vstore(x, 0x2000);
        let diags = check(
            &b.finish(),
            &[
                Arena::new("p1.x", 0x5000, 0x80).as_placeholder(),
                Arena::new("y", 0x2000, 0x80),
            ],
            &[],
        );
        assert!(diags.iter().any(|d| d.code == Code::UncoveredPlaceholder));
    }

    #[test]
    fn carried_read_after_overwrite_trips_ava003() {
        let mut b = KernelBuilder::new("bad");
        b.set_vl(8);
        let x = b.vload(0x1000);
        let y = b.vfadd(x, 1.0);
        b.vstore(y, 0x1000); // destroys the carried value in place
        let z = b.vload(0x1000); // then reads it back
        b.vstore(z, 0x2000);
        let diags = check(
            &b.finish(),
            &[
                Arena::new("x", 0x1000, 0x80).as_destroy_tracked(),
                Arena::new("y", 0x2000, 0x80),
            ],
            &[],
        );
        let d = diags
            .iter()
            .find(|d| d.code == Code::ReadAfterDestroy)
            .unwrap();
        assert_eq!(d.ir_index, 4);
    }

    #[test]
    fn carried_reads_across_phase_spans_are_the_intended_flow() {
        // Iteration k+1 reading what iteration k wrote is how carries work;
        // the bookkeeping resets at the phase boundary.
        let mut b = KernelBuilder::new("ok");
        b.set_vl(8);
        let x = b.vload(0x1000);
        let y = b.vfadd(x, 1.0);
        b.vstore(y, 0x1000);
        let boundary = b.finish();
        let mut b = KernelBuilder::new("iter1");
        b.set_vl(8);
        let x = b.vload(0x1000);
        let y = b.vfadd(x, 1.0);
        b.vstore(y, 0x1000);
        let mut k = boundary.clone();
        k.concat_remapped(&b.finish(), &[]);
        let diags = check(
            &k,
            &[Arena::new("x", 0x1000, 0x80).as_destroy_tracked()],
            &[boundary.len(), k.len()],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn zero_length_read_at_the_seam_of_touching_stores_is_clean() {
        // Two strips stored back to back, in either order, destroy no byte
        // that a VL-0 read at their seam names; the same read inside a
        // strip trips AVA003.
        for order in [[0x1000u64, 0x1040], [0x1040, 0x1000]] {
            let mut b = KernelBuilder::new("seam");
            b.set_vl(8);
            let x = b.vload(0x2000);
            for base in order {
                b.vstore(x, base);
            }
            b.set_vl(0);
            b.vload(0x1040);
            b.vload(0x1020);
            let diags = check(
                &b.finish(),
                &[
                    Arena::new("x", 0x1000, 0x80).as_destroy_tracked(),
                    Arena::new("y", 0x2000, 0x40),
                ],
                &[],
            );
            let found: Vec<(Code, usize)> = diags.iter().map(|d| (d.code, d.ir_index)).collect();
            assert_eq!(found, [(Code::ReadAfterDestroy, 6)], "stores at {order:x?}");
        }
    }

    #[test]
    fn load_then_store_in_place_is_clean() {
        // The axpy idiom: each strip loads the carried buffer before
        // overwriting the same interval.
        let mut b = KernelBuilder::new("ok");
        for off in [0u64, 64] {
            b.set_vl(8);
            let y = b.vload(0x1000 + off);
            let r = b.vfadd(y, 1.0);
            b.vstore(r, 0x1000 + off);
        }
        let diags = check(
            &b.finish(),
            &[Arena::new("y", 0x1000, 0x80).as_destroy_tracked()],
            &[],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn overwritten_unread_store_trips_ava103() {
        let mut b = KernelBuilder::new("bad");
        b.set_vl(8);
        let x = b.vload(0x1000);
        b.vstore(x, 0x2000);
        b.vstore(x, 0x2000); // the first store was never read
        let diags = check(
            &b.finish(),
            &[Arena::new("x", 0x1000, 0x80), Arena::new("y", 0x2000, 0x80)],
            &[],
        );
        let d = diags.iter().find(|d| d.code == Code::DeadStore).unwrap();
        assert_eq!(d.ir_index, 2, "anchored at the dead store itself");
    }

    #[test]
    fn cross_phase_overwrite_downgrades_to_info() {
        // An uncarried output of an unrolled loop is overwritten by the
        // next iteration by design: still reported, but only at info.
        let mut b = KernelBuilder::new("it0");
        b.set_vl(8);
        let x = b.vload(0x1000);
        b.vstore(x, 0x2000);
        let it0 = b.finish();
        let mut b = KernelBuilder::new("it1");
        b.set_vl(8);
        let x = b.vload(0x1000);
        b.vstore(x, 0x2000);
        let mut k = it0.clone();
        k.concat_remapped(&b.finish(), &[]);
        let diags = check(
            &k,
            &[
                Arena::new("x", 0x1000, 0x80),
                Arena::new("out", 0x2000, 0x80),
            ],
            &[it0.len(), k.len()],
        );
        let d = diags.iter().find(|d| d.code == Code::DeadStore).unwrap();
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("later phase"), "{}", d.message);
    }

    #[test]
    fn store_read_back_then_overwritten_is_clean() {
        let mut b = KernelBuilder::new("ok");
        b.set_vl(8);
        let x = b.vload(0x1000);
        b.vstore(x, 0x2000);
        let y = b.vload(0x2000); // observes the first store
        let z = b.vfadd(y, 1.0);
        b.vstore(z, 0x2000);
        let diags = check(
            &b.finish(),
            &[Arena::new("x", 0x1000, 0x80), Arena::new("y", 0x2000, 0x80)],
            &[],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn final_stores_are_live_out() {
        let mut b = KernelBuilder::new("ok");
        b.set_vl(8);
        let x = b.vload(0x1000);
        b.vstore(x, 0x2000);
        let diags = check(
            &b.finish(),
            &[Arena::new("x", 0x1000, 0x80), Arena::new("y", 0x2000, 0x80)],
            &[],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn gather_base_containment_is_still_checked() {
        let mut b = KernelBuilder::new("bad");
        b.set_vl(8);
        let idx = b.vload(0x2000);
        let g = b.vload_indexed(0x9000, idx); // base outside every arena
        b.vstore(g, 0x2000);
        let diags = check(&b.finish(), &[Arena::new("y", 0x2000, 0x80)], &[]);
        assert!(diags.iter().any(|d| d.code == Code::OutOfArena));
    }

    #[test]
    fn no_arenas_means_no_memory_findings() {
        let mut b = KernelBuilder::new("k");
        b.set_vl(8);
        let x = b.vload(0x1000);
        b.vstore(x, 0x2000);
        let k = b.finish();
        let mut diags = Vec::new();
        let vl_at = vl_trace(&k, Some(16), &mut diags);
        // Callers skip the memory pass when they have no layout; calling it
        // with an empty arena list would flag everything as out-of-arena.
        check_memory(&k, &vl_at, Some(16), &[], &[], &mut diags);
        assert!(diags.iter().all(|d| d.code == Code::OutOfArena));
    }
}
