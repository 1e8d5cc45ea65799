//! Composite: a multi-kernel workload running several applications back to
//! back on one system — optionally as a *dataflow pipeline* or an
//! *iterated solver loop*.
//!
//! The paper evaluates each RiVEC kernel in isolation; real deployments run
//! *mixes* — an option pricer feeding a solver, a filter stage after a
//! stencil, a relaxation loop sweeping the same arrays until convergence.
//! [`Composite`] models that in three flavours:
//!
//! * [`Composite::new`]: independent phases. Each phase keeps its own input
//!   data and golden reference; only cache/DRAM *timing* state is shared.
//! * [`Composite::pipelined`]: dataflow phases. An explicit binding map
//!   routes each phase's output buffers into the next phase's input
//!   buffers. The consumer's kernel is rebased onto the producer's output
//!   buffer (so it reads the *real* simulated data at run time), the
//!   consumer's golden reference is computed over the producer's
//!   *reference* output (chaining the scalar models), and the producer's
//!   checks on a consumed buffer are superseded by the consumer's — if the
//!   producer computes garbage, the consumer's chained checks catch it
//!   downstream. A consumer may overwrite a linked buffer in place, but
//!   never read an element of it after overwriting that element: the
//!   construction lint rejects that read as AVA003.
//! * [`Composite::iterated`]: a convergence loop. One body phase is
//!   unrolled `n` times; `carry` links route each iteration's outputs into
//!   the next iteration's inputs. Instead of planning `n` buffer copies,
//!   odd iterations are concatenated with the carried input/output arrays
//!   *swapped* ([`RebaseRule::swapped`]), so a carried value ping-pongs
//!   between two physical buffers with no per-iteration copies. The scalar
//!   golden reference is iterated the same `n` times, and intermediate
//!   checks are superseded so only the converged state is validated.
//!
//! Links and carries bind the inputs of kernel phases only: a composite
//! takes no input bindings, so a link into a composite phase (or a carry
//! into a composite body) is rejected when the outer composite is
//! constructed. A composite may still be an unlinked phase of another.
//!
//! Either way the phases execute sequentially in a single program on one
//! cache-warm memory hierarchy, and one `RunReport` (with per-phase — and,
//! for iterated composites, per-iteration — breakdowns) covers the whole
//! mix.

use ava_compiler::analysis::{Arena, Severity};
use ava_compiler::{IrKernel, RebaseRule};
use ava_isa::VectorContext;
use ava_memory::MemoryHierarchy;

use crate::layout::{BufferBindings, DataLayout, PlannedLayout};
use crate::{Check, OutputValues, PhaseMark, SharedWorkload, Workload, WorkloadSetup};

/// One output→input binding: the producer phase's output buffer name and
/// the consumer phase's input buffer name. In a [`Composite::pipelined`]
/// link list for transition `p` the producer is phase `p` and the consumer
/// phase `p + 1`; in the carry list of a [`Composite::iterated`] iteration
/// `k` feeds iteration `k + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLink {
    /// The producer's output buffer name.
    pub output: String,
    /// The consumer's input buffer name.
    pub input: String,
}

/// Builds the link list for one phase transition from `(output, input)`
/// name pairs.
#[must_use]
pub fn links(pairs: &[(&str, &str)]) -> Vec<PhaseLink> {
    pairs
        .iter()
        .map(|(o, i)| PhaseLink {
            output: (*o).to_string(),
            input: (*i).to_string(),
        })
        .collect()
}

/// The unroll description of an iterated composite: the body runs `n`
/// times, with `carry` routing each iteration's outputs into the next
/// iteration's inputs.
#[derive(Debug, Clone)]
struct IterSpec {
    n: usize,
    carry: Vec<PhaseLink>,
}

/// A multi-kernel workload: the given phases run sequentially in one
/// simulation, sharing the memory hierarchy — and, when constructed with
/// [`Composite::pipelined`] or [`Composite::iterated`], flowing data from
/// phase to phase (or iteration to iteration).
///
/// ```
/// use std::sync::Arc;
/// use ava_workloads::{composite, Axpy, Composite, Somier, Workload};
///
/// let mix = Composite::new(vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))]);
/// assert_eq!(mix.name(), "composite");
///
/// // The same phases as a dataflow pipeline: axpy's output feeds somier's
/// // velocity array.
/// let pipe = Composite::pipelined(
///     vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))],
///     vec![composite::links(&[("y", "v")])],
/// );
/// assert_eq!(pipe.name(), "pipelined");
/// assert_eq!(
///     pipe.elements(),
///     Axpy::new(256).elements() + Somier::new(256).elements()
/// );
///
/// // A four-step relaxation: somier's position/velocity outputs carry into
/// // the next iteration's inputs, ping-ponging between two arrays.
/// let solver = Composite::iterated(
///     Arc::new(Somier::relaxation(256)),
///     4,
///     composite::links(&[("xout", "x"), ("vout", "v")]),
/// );
/// assert_eq!(solver.name(), "iterated");
/// assert_eq!(solver.iterations(), 4);
/// assert_eq!(solver.elements(), 4 * Somier::relaxation(256).elements());
/// ```
#[derive(Clone)]
pub struct Composite {
    phases: Vec<SharedWorkload>,
    /// `links[p]` binds phase `p`'s outputs to phase `p + 1`'s inputs.
    links: Vec<Vec<PhaseLink>>,
    /// `Some` when this composite unrolls `phases[0]` as a solver loop.
    iterate: Option<IterSpec>,
}

impl Composite {
    /// Creates a composite of independent phases, in execution order.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    #[must_use]
    pub fn new(phases: Vec<SharedWorkload>) -> Self {
        let transitions = phases.len().saturating_sub(1);
        Self::pipelined(phases, vec![Vec::new(); transitions])
    }

    /// Creates a dataflow pipeline: `links[p]` names the `(output, input)`
    /// buffer pairs binding phase `p`'s outputs to phase `p + 1`'s inputs.
    /// An empty link list leaves that transition independent.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, if `links` does not have exactly one
    /// entry per phase transition, if any link repeats an earlier
    /// `(output, input)` pair of the same transition, names an unknown
    /// buffer, binds the same input twice, binds a non-bindable buffer (an
    /// output), consumes a non-exposable buffer (a pure input), pairs
    /// buffers of different sizes or binds an input of a composite phase,
    /// or if a consumer reads an element of a linked buffer after it
    /// overwrote that element in place (AVA003, from the construction
    /// lint).
    #[must_use]
    pub fn pipelined(phases: Vec<SharedWorkload>, links: Vec<Vec<PhaseLink>>) -> Self {
        assert!(!phases.is_empty(), "a composite needs at least one phase");
        assert_eq!(
            links.len(),
            phases.len() - 1,
            "need exactly one link list per phase transition"
        );
        for (p, transition) in links.iter().enumerate() {
            Self::check_links(&phases, transition, p, p + 1);
        }
        let composite = Self {
            phases,
            links,
            iterate: None,
        };
        composite.lint_at_construction();
        composite
    }

    /// Creates an iterated composite: `body` unrolled `n` times in one
    /// program, with `carry` routing each iteration's named outputs into
    /// the next iteration's inputs. Carried values ping-pong between the
    /// body's planned input and output arrays (odd iterations run with the
    /// two swapped via [`RebaseRule::swapped`]) — no per-iteration buffer
    /// copies, and only two physical arrays per carried buffer regardless
    /// of `n`. The golden reference is chained through all `n` iterations
    /// and only the final iteration's checks are validated.
    ///
    /// A carry link whose input is the *same* `InOut` buffer as its output
    /// (an in-place body) degenerates to a true in-place loop: no swap is
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, if a buffer appears in more than one carry
    /// pair (the ping-pong would be ill-defined: one array cannot alternate
    /// with two partners), if the carry links fail the same buffer checks
    /// as [`Composite::pipelined`] (unknown/duplicate/size-mismatched/
    /// non-bindable names), or if `n >= 2` carries into a composite body.
    #[must_use]
    pub fn iterated(body: SharedWorkload, n: usize, carry: Vec<PhaseLink>) -> Self {
        assert!(n >= 1, "an iterated composite needs at least one iteration");
        // Carried buffers obey the same contract as a self-transition of a
        // pipeline (body feeding another instance of itself).
        let phases = vec![body];
        Self::check_links(&phases, &carry, 0, 0);
        // Each carry pair swaps its two arrays every odd iteration; a
        // buffer in two pairs would need two swap partners at once, so the
        // rebase map would contain overlapping rules. Reject it here by
        // name instead of panicking inside `concat_remapped` on a sweep
        // worker thread. (Checked after `check_links` so exact duplicate
        // pairs keep their more specific "duplicate link" error.)
        let mut swapped: Vec<&str> = Vec::new();
        for link in &carry {
            for name in [link.output.as_str(), link.input.as_str()] {
                assert!(
                    !swapped.contains(&name),
                    "buffer {name:?} appears in more than one carry link; \
                     a carried array can only ping-pong with one partner"
                );
            }
            swapped.push(&link.output);
            if link.input != link.output {
                swapped.push(&link.input);
            }
        }
        let composite = Self {
            phases,
            links: Vec::new(),
            iterate: Some(IterSpec { n, carry }),
        };
        composite.lint_at_construction();
        composite
    }

    /// Deny-by-default static verification at construction: the wired
    /// composite is built once (at a small MVL, against a throwaway memory
    /// hierarchy) and run through the full [`crate::analysis`] suite. Any
    /// finding at [`Severity::Warn`] or above is fatal — the known bug
    /// classes (splat before `vsetvl`, a rebase that misses its placeholder
    /// buffer, a carried or linked array read after an in-place overwrite
    /// destroyed it) are rejected here, before any simulation runs. The
    /// build also rejects a link or carry into a composite phase (see
    /// [`Workload::build_with_bindings`] on [`Composite`]).
    ///
    /// # Panics
    ///
    /// Panics with the rendered diagnostic on the first warn-or-worse
    /// finding.
    fn lint_at_construction(&self) {
        let report = self.verify(16);
        let worst = report.at_least(Severity::Warn).next().cloned();
        if let Some(worst) = worst {
            panic!(
                "static analysis rejected this {} composite: {worst}",
                self.name()
            );
        }
    }

    /// Validates one transition's link list against the producer and
    /// consumer layouts. `producer` and `consumer` are phase indices into
    /// `phases`; for carry links both are `0` (the body feeds itself).
    fn check_links(
        phases: &[SharedWorkload],
        transition: &[PhaseLink],
        producer: usize,
        consumer: usize,
    ) {
        let from = phases[producer].data_layout();
        let to = phases[consumer].data_layout();
        let mut bound_inputs: Vec<&str> = Vec::new();
        let mut seen: Vec<(&str, &str)> = Vec::new();
        for link in transition {
            let pair = (link.output.as_str(), link.input.as_str());
            assert!(
                !seen.contains(&pair),
                "duplicate link: buffer {:?} of phase {producer} is already bound to \
                 input {:?} of phase {consumer}",
                link.output,
                link.input
            );
            seen.push(pair);
            let src = from.get(&link.output).unwrap_or_else(|| {
                panic!(
                    "phase {producer} ({}) has no buffer named {:?}",
                    phases[producer].name(),
                    link.output
                )
            });
            let dst = to.get(&link.input).unwrap_or_else(|| {
                panic!(
                    "phase {consumer} ({}) has no buffer named {:?}",
                    phases[consumer].name(),
                    link.input
                )
            });
            assert!(
                src.role.is_exposable(),
                "buffer {:?} of phase {producer} is a pure input and exposes no data",
                link.output
            );
            assert!(
                dst.role.is_bindable(),
                "buffer {:?} of phase {consumer} (role {:?}) cannot be bound",
                link.input,
                dst.role
            );
            assert_eq!(
                src.elems, dst.elems,
                "cannot bind {:?} ({} elements) to {:?} ({} elements)",
                link.output, src.elems, link.input, dst.elems
            );
            assert!(
                !bound_inputs.contains(&link.input.as_str()),
                "input {:?} of phase {consumer} is bound twice",
                link.input
            );
            bound_inputs.push(&link.input);
        }
    }

    /// Number of times the body runs: the unroll factor for an iterated
    /// composite, `1` otherwise.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterate.as_ref().map_or(1, |s| s.n)
    }

    /// Whether any phase transition carries a data binding.
    #[must_use]
    pub fn is_pipelined(&self) -> bool {
        self.links.iter().any(|l| !l.is_empty())
    }

    /// Names of the phases, in execution order ("axpy+somier" style labels
    /// for tables come from joining these).
    #[must_use]
    pub fn phase_names(&self) -> Vec<&'static str> {
        self.phases.iter().map(|p| p.name()).collect()
    }

    fn prefix(p: usize) -> String {
        format!("p{p}.")
    }

    /// The preceding phase's reference output that each link consumes.
    fn consumed<'a>(
        links: &'a [PhaseLink],
        prev: &'a [OutputValues],
    ) -> Vec<(&'a PhaseLink, &'a OutputValues)> {
        links
            .iter()
            .map(|link| {
                let src = prev.iter().find(|o| o.name == link.output);
                let src = src.unwrap_or_else(|| {
                    panic!(
                        "the producer of input {:?} returned no output {:?}",
                        link.input, link.output
                    )
                });
                (link, src)
            })
            .collect()
    }

    /// The unrolled build of an iterated composite: the body is built once
    /// per iteration (its golden reference chained through the carry
    /// links), concatenated with the ping-pong rebase map on odd
    /// iterations. Only the final iteration's checks and outputs and the
    /// first iteration's warm ranges survive.
    fn build_iterated(
        &self,
        spec: &IterSpec,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
    ) -> WorkloadSetup {
        let body = &self.phases[0];
        let prefix = Self::prefix(0);
        let sub = plan.subset(&prefix);

        // The ping-pong map: every carried (output, input) array pair is
        // swapped on odd iterations, so iteration k + 1 reads where
        // iteration k wrote and writes where iteration k read. An in-place
        // carry (output and input are the same InOut buffer) needs no swap.
        let mut swap: Vec<RebaseRule> = Vec::new();
        for link in &spec.carry {
            let out = sub.buffer(&link.output);
            let inp = sub.buffer(&link.input);
            if out.base != inp.base {
                swap.extend(RebaseRule::swapped(inp.base, out.base, out.bytes()));
            }
        }

        let mut chain = Chain::new(self.name(), mem, ctx);
        let mut prev: Vec<OutputValues> = Vec::new();
        for k in 0..spec.n {
            // Every iteration after the first runs its reference on the
            // previous iteration's reference outputs.
            let carry = if k > 0 { &spec.carry[..] } else { &[] };
            let consumed = Self::consumed(carry, &prev);
            let rebase: &[RebaseRule] = if k % 2 == 1 { &swap } else { &[] };
            let mark = (format!("it{k}:{}", body.name()), Some(k));
            let part = chain.append(body, mark, &sub, &consumed, rebase);
            if k == 0 {
                // Every later iteration touches the same two physical
                // arrays per carried buffer, already covered here.
                chain.setup.warm_ranges = part.warm_ranges;
            }
            // Intermediate checks are superseded: each iteration rewrites
            // (or parity-swaps) every output array, so only the converged
            // state — the final iteration's checks — is validated.
            chain.setup.checks = part.checks;
            prev = part.outputs;
        }
        chain.setup.outputs = prev
            .into_iter()
            .map(|o| Self::prefixed(&prefix, o))
            .collect();
        chain.setup
    }

    /// A phase output under its composite name.
    fn prefixed(prefix: &str, o: OutputValues) -> OutputValues {
        OutputValues {
            name: format!("{prefix}{}", o.name),
            ..o
        }
    }
}

/// A composite's program in the making: the phases appended so far, and
/// the memory and vector context every next phase is built against.
struct Chain<'m> {
    mem: &'m mut MemoryHierarchy,
    ctx: &'m VectorContext,
    setup: WorkloadSetup,
}

impl<'m> Chain<'m> {
    /// An empty program named `name`.
    fn new(name: &str, mem: &'m mut MemoryHierarchy, ctx: &'m VectorContext) -> Self {
        let kernel = IrKernel {
            name: name.to_string(),
            ..Default::default()
        };
        let setup = WorkloadSetup {
            kernel,
            ..Default::default()
        };
        Self { mem, ctx, setup }
    }

    /// The per-phase step of every composite build: `phase` is built
    /// against `plan` with each consumed input bound to its producer's
    /// reference output (which chains the scalar models), its kernel is
    /// appended through `rebase` (first matching rule wins) and closed by
    /// the phase mark `(name, iter)`, and its checks and outputs follow the
    /// kernel onto the rebased buffers. Returns the phase's setup, for the
    /// caller to keep what its policy keeps of the checks, outputs and warm
    /// ranges.
    fn append(
        &mut self,
        phase: &SharedWorkload,
        (name, iter): (String, Option<usize>),
        plan: &PlannedLayout,
        consumed: &[(&PhaseLink, &OutputValues)],
        rebase: &[RebaseRule],
    ) -> WorkloadSetup {
        let mut bindings = BufferBindings::none();
        for (link, src) in consumed {
            bindings.bind(link.input.clone(), src.values.clone());
        }
        let mut part = phase.build_with_bindings(self.mem, self.ctx, plan, &bindings);
        let setup = &mut self.setup;
        setup.kernel.concat_remapped(&part.kernel, rebase);
        setup.phase_marks.push(PhaseMark {
            name,
            iter,
            ir_end: setup.kernel.len(),
        });
        setup.strips += part.strips;
        let moved = |addr: u64| rebase.iter().find_map(|r| r.apply(addr)).unwrap_or(addr);
        for c in &mut part.checks {
            c.addr = moved(c.addr);
        }
        for o in &mut part.outputs {
            o.base = moved(o.base);
        }
        part
    }
}

impl std::fmt::Debug for Composite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Composite");
        s.field("phases", &self.phase_names());
        if let Some(spec) = &self.iterate {
            s.field("iterations", &spec.n).field("carry", &spec.carry);
        } else {
            s.field("links", &self.links);
        }
        s.finish()
    }
}

impl Workload for Composite {
    fn name(&self) -> &'static str {
        if self.iterate.is_some() {
            "iterated"
        } else if self.is_pipelined() {
            "pipelined"
        } else {
            "composite"
        }
    }

    fn elements(&self) -> usize {
        // The sweep scheduler's cost estimate: a mix costs the sum of its
        // phases (and an iterated mix runs its body n times), so composite
        // points rank ahead of their largest phase.
        self.phases.iter().map(|p| p.elements()).sum::<usize>() * self.iterations()
    }

    fn data_layout(&self) -> DataLayout {
        // The union of the phase layouts, each phase's buffer names
        // prefixed with `p{i}.` so equal phases do not collide. An iterated
        // composite plans its body once — the unrolled iterations ping-pong
        // over the same arrays.
        let mut union = DataLayout::new();
        for (p, phase) in self.phases.iter().enumerate() {
            for spec in phase.data_layout().buffers {
                union.buffers.push(crate::layout::BufferSpec {
                    name: format!("{}{}", Self::prefix(p), spec.name),
                    elems: spec.elems,
                    role: spec.role,
                });
            }
        }
        union
    }

    fn analysis_arenas(&self, plan: &PlannedLayout) -> Vec<Arena> {
        // Recurse per phase (composite phases keep their inner markings),
        // re-prefixing arena names with the phase prefix.
        let mut arenas = Vec::new();
        for (p, phase) in self.phases.iter().enumerate() {
            let prefix = Self::prefix(p);
            let sub = plan.subset(&prefix);
            for mut a in phase.analysis_arenas(&sub) {
                a.name = format!("{prefix}{}", a.name);
                // A nested composite's destroy-tracked marks are relative
                // to its own phase spans, which are invisible at this level
                // (the outer phase marks cover the whole inner kernel) —
                // and the inner constructor already verified them against
                // the right spans. Keep only placeholder marks, which stay
                // valid: inner rebases are baked into the concatenated
                // kernel and never reintroduce placeholder accesses.
                a.destroy_tracked = false;
                arenas.push(a);
            }
        }
        let mark = |arenas: &mut Vec<Arena>, name: &str, f: fn(&mut Arena)| {
            if let Some(a) = arenas.iter_mut().find(|a| a.name == name) {
                f(a);
            }
        };
        if let Some(spec) = &self.iterate {
            // Both ends of every carry pair ping-pong the carried value
            // (an in-place carry has one shared arena); reading either
            // after an overwrite in the same iteration destroys the carry.
            for link in &spec.carry {
                for name in [&link.output, &link.input] {
                    let full = format!("{}{}", Self::prefix(0), name);
                    mark(&mut arenas, &full, |a| a.destroy_tracked = true);
                }
            }
        } else {
            // A linked consumer input is never materialised: every access
            // to it must have been rebased onto the producer's buffer, so
            // any access still landing there is the wrong-buffer-rebase
            // bug. The consumer of transition `p` is phase `p + 1`. It
            // can store into the producer's buffer only through that
            // rebase, so reading an element of the buffer after such a
            // store in its phase reads a value the chained reference never
            // saw.
            for (p, transition) in self.links.iter().enumerate() {
                for link in transition {
                    let input = format!("{}{}", Self::prefix(p + 1), link.input);
                    mark(&mut arenas, &input, |a| a.placeholder = true);
                    let output = format!("{}{}", Self::prefix(p), link.output);
                    mark(&mut arenas, &output, |a| a.destroy_tracked = true);
                }
            }
        }
        arenas
    }

    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        // Links and carries bind kernel inputs only; values bound into a
        // composite would have to be forwarded to its phases and rebased
        // there, which no mix needs.
        if let Some(name) = bindings.names().next() {
            panic!(
                "a composite takes no input bindings, but input {name:?} of this {} \
                 composite is bound: link or carry into a kernel phase instead",
                self.name()
            );
        }
        if let Some(spec) = &self.iterate {
            return self.build_iterated(spec, mem, ctx, plan);
        }
        let mut chain = Chain::new(self.name(), mem, ctx);
        // A phase's checks are held back until the next phase is wired: a
        // link consuming one of its output buffers supersedes its checks on
        // the buffer — the consumer's chained checks cover it downstream.
        let mut deferred: Vec<Vec<Check>> = Vec::new();
        let mut prev: Vec<OutputValues> = Vec::new();
        for (p, phase) in self.phases.iter().enumerate() {
            let prefix = Self::prefix(p);
            let sub = plan.subset(&prefix);
            let links = p.checked_sub(1).map_or(&[][..], |t| &self.links[t]);
            let consumed = Self::consumed(links, &prev);
            let mut rebase = Vec::new();
            for (link, src) in &consumed {
                let (start, end) = src.range();
                deferred[p - 1].retain(|c| !(c.addr >= start && c.addr < end));
                // The consumer's kernel reads the producer's real output:
                // the planned placeholder input is rebased away.
                let dst = sub.buffer(&link.input);
                rebase.push(RebaseRule {
                    old_base: dst.base,
                    bytes: dst.bytes(),
                    new_base: src.base,
                });
            }
            let mark = (format!("{p}:{}", phase.name()), None);
            let part = chain.append(phase, mark, &sub, &consumed, &rebase);
            chain.setup.warm_ranges.extend(part.warm_ranges);
            deferred.push(part.checks);
            chain.setup.outputs.extend(
                part.outputs
                    .iter()
                    .cloned()
                    .map(|o| Self::prefixed(&prefix, o)),
            );
            prev = part.outputs;
        }
        chain.setup.checks = deferred.concat();
        chain.setup
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{validate, ArenaPlanner, Axpy, Blackscholes, Check, Somier};

    fn mix() -> Composite {
        Composite::new(vec![
            Arc::new(Axpy::new(256)),
            Arc::new(Somier::new(256)),
            Arc::new(Blackscholes::new(64)),
        ])
    }

    fn pipeline() -> Composite {
        Composite::pipelined(
            vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))],
            vec![links(&[("y", "v")])],
        )
    }

    fn solver(n: usize, iters: usize) -> Composite {
        Composite::iterated(
            Arc::new(Somier::relaxation(n)),
            iters,
            links(&[("xout", "x"), ("vout", "v")]),
        )
    }

    /// The n-step scalar reference of the somier relaxation: returns the
    /// final positions (with halo) and velocities after `iters` explicit
    /// Euler steps, using exactly the fused operations of the kernel's
    /// golden reference so equality is bit-exact.
    fn relaxation_reference(n: usize, iters: usize) -> (Vec<f64>, Vec<f64>) {
        let mut gen = crate::data::DataGen::for_workload("somier");
        let mut x = gen.uniform_vec(n + 2, -1.0, 1.0);
        let mut v = gen.uniform_vec(n, -0.1, 0.1);
        for _ in 0..iters {
            let mut xn = x.clone();
            for j in 0..n {
                let force = 4.0 * (-2.0f64).mul_add(x[j + 1], x[j] + x[j + 2]);
                let vnew = force.mul_add(0.001, v[j]);
                xn[j + 1] = vnew.mul_add(0.001, x[j + 1]);
                v[j] = vnew;
            }
            x = xn;
        }
        (x, v)
    }

    #[test]
    fn build_concatenates_every_phase() {
        let mut mem = MemoryHierarchy::default();
        let ctx = VectorContext::with_mvl(16);
        let composite = mix().build(&mut mem, &ctx);

        let mut mem2 = MemoryHierarchy::default();
        let parts: Vec<WorkloadSetup> = mix()
            .phases
            .iter()
            .map(|p| p.build(&mut mem2, &ctx))
            .collect();
        assert_eq!(
            composite.kernel.len(),
            parts.iter().map(|p| p.kernel.len()).sum::<usize>()
        );
        assert_eq!(
            composite.checks.len(),
            parts.iter().map(|p| p.checks.len()).sum::<usize>()
        );
        assert_eq!(
            composite.strips,
            parts.iter().map(|p| p.strips).sum::<u64>()
        );
        // Phase marks partition the concatenated kernel.
        assert_eq!(composite.phase_marks.len(), 3);
        assert_eq!(
            composite.phase_marks.last().unwrap().ir_end,
            composite.kernel.len()
        );
        assert!(composite.phase_marks.iter().all(|m| m.iter.is_none()));
    }

    #[test]
    fn pressure_is_the_maximum_phase_not_the_sum() {
        let mut mem = MemoryHierarchy::default();
        let ctx = VectorContext::with_mvl(16);
        let composite = mix().build(&mut mem, &ctx);
        let mut mem2 = MemoryHierarchy::default();
        let max_phase = mix()
            .phases
            .iter()
            .map(|p| p.build(&mut mem2, &ctx).kernel.max_pressure())
            .max()
            .unwrap();
        assert_eq!(composite.kernel.max_pressure(), max_phase);
    }

    #[test]
    fn checks_validate_after_writing_expected_values() {
        // The checks of every phase coexist: writing each expected value
        // into the shared memory satisfies the whole composite.
        let mut mem = MemoryHierarchy::default();
        let setup = mix().build(&mut mem, &VectorContext::with_mvl(16));
        for c in &setup.checks {
            mem.write_f64(c.addr, c.expected);
        }
        assert!(validate(&mem, &setup.checks).is_ok());
    }

    #[test]
    fn elements_sum_phase_costs() {
        assert_eq!(
            mix().elements(),
            Axpy::new(256).elements()
                + Somier::new(256).elements()
                + Blackscholes::new(64).elements()
        );
        // An iterated mix costs its body times the unroll factor.
        assert_eq!(
            solver(256, 5).elements(),
            5 * Somier::relaxation(256).elements()
        );
    }

    #[test]
    fn pipelined_chains_the_scalar_references() {
        let mut mem = MemoryHierarchy::default();
        let ctx = VectorContext::with_mvl(16);
        let setup = pipeline().build(&mut mem, &ctx);

        // Somier's reference velocity input must be axpy's reference
        // output, not somier's own generated data: recompute the chain by
        // hand from the two phase references.
        let axpy_y = setup.output("p0.y");
        let somier_vout = setup.output("p1.vout");
        let somier_x = {
            // Somier's positions are still its own generated data.
            let mut gen = crate::data::DataGen::for_workload("somier");
            gen.uniform_vec(256 + 2, -1.0, 1.0)
        };
        for j in 0..256 {
            let force = 4.0 * (-2.0f64).mul_add(somier_x[j + 1], somier_x[j] + somier_x[j + 2]);
            let expected = force.mul_add(0.001, axpy_y.values[j]);
            assert_eq!(somier_vout.values[j], expected, "element {j}");
        }
    }

    #[test]
    fn pipelined_supersedes_consumed_intermediate_checks() {
        let mut mem = MemoryHierarchy::default();
        let ctx = VectorContext::with_mvl(16);
        let piped = pipeline().build(&mut mem, &ctx);
        // Axpy's 256 y-checks are consumed by somier and superseded; the
        // somier checks (2 per node) survive.
        assert_eq!(piped.checks.len(), 2 * 256);
        let (y_start, y_end) = piped.output("p0.y").range();
        assert!(piped
            .checks
            .iter()
            .all(|c| c.addr < y_start || c.addr >= y_end));
    }

    #[test]
    fn pipelined_rebases_the_consumer_onto_the_producer() {
        let mut mem = MemoryHierarchy::default();
        let ctx = VectorContext::with_mvl(16);
        let piped = pipeline().build(&mut mem, &ctx);
        let y = piped.output("p0.y");
        let (y_start, y_end) = y.range();
        // Somier's velocity loads now target axpy's y buffer...
        let somier_range = piped.phase_marks[0].ir_end..piped.phase_marks[1].ir_end;
        let reads_y = piped.kernel.instrs[somier_range]
            .iter()
            .filter(|i| {
                i.opcode == ava_isa::Opcode::VLoad
                    && i.mem.is_some_and(|m| m.base >= y_start && m.base < y_end)
            })
            .count();
        assert!(reads_y > 0, "somier must read axpy's output buffer");
        // ...and the dead placeholder input is not warmed.
        let mut mem2 = MemoryHierarchy::default();
        let plan = crate::ArenaPlanner::new().plan(&mut mem2, &pipeline().data_layout());
        let placeholder = plan.buffer("p1.v").range();
        assert!(!piped.warm_ranges.contains(&placeholder));
        // The placeholder exists in the plan but no kernel access targets it.
        assert!(piped.kernel.instrs.iter().all(|i| i
            .mem
            .is_none_or(|m| m.base < placeholder.0 || m.base >= placeholder.1)));
    }

    #[test]
    fn unpipelined_and_pipelined_references_differ() {
        // The chained reference is genuinely different from the independent
        // one: somier fed by axpy computes different velocities than somier
        // on its own generated data.
        let ctx = VectorContext::with_mvl(16);
        let mut mem1 = MemoryHierarchy::default();
        let piped = pipeline().build(&mut mem1, &ctx);
        let mut mem2 = MemoryHierarchy::default();
        let plain = Composite::new(vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))])
            .build(&mut mem2, &ctx);
        assert_ne!(
            piped.output("p1.vout").values,
            plain.output("p1.vout").values
        );
    }

    #[test]
    fn broken_chain_fails_validation() {
        // Writing the *independent* somier expectations into memory must
        // not satisfy the pipelined checks: the chain changed them.
        let ctx = VectorContext::with_mvl(16);
        let mut mem = MemoryHierarchy::default();
        let piped = pipeline().build(&mut mem, &ctx);
        let mut mem2 = MemoryHierarchy::default();
        let plain = Composite::new(vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))])
            .build(&mut mem2, &ctx);
        let plain_by_addr: Vec<Check> = plain.checks;
        for c in &plain_by_addr {
            mem.write_f64(c.addr, c.expected);
        }
        assert!(validate(&mem, &piped.checks).is_err());
    }

    #[test]
    fn iterated_matches_the_iterated_scalar_reference_bit_exactly() {
        for iters in [1, 3, 4] {
            let mut mem = MemoryHierarchy::default();
            let setup = solver(128, iters).build(&mut mem, &VectorContext::with_mvl(16));
            let (x_ref, v_ref) = relaxation_reference(128, iters);
            assert_eq!(setup.output("p0.xout").values, x_ref, "{iters} iterations");
            assert_eq!(setup.output("p0.vout").values, v_ref, "{iters} iterations");
            // Only the converged state is validated: the final iteration's
            // checks, nothing from intermediate iterations.
            assert_eq!(setup.checks.len(), 2 * 128 + 2, "{iters} iterations");
            // Phase marks carry the iteration index.
            assert_eq!(setup.phase_marks.len(), iters);
            for (k, mark) in setup.phase_marks.iter().enumerate() {
                assert_eq!(mark.iter, Some(k));
                assert_eq!(mark.name, format!("it{k}:somier"));
            }
        }
    }

    #[test]
    fn iterated_ping_pongs_between_the_two_physical_arrays() {
        let n = 64;
        let mut mem = MemoryHierarchy::default();
        let plan = ArenaPlanner::new().plan(&mut mem, &solver(n, 1).data_layout());
        let x = plan.buffer("p0.x").range();
        let xout = plan.buffer("p0.xout").range();

        for iters in [1, 2, 3, 4] {
            let mut mem = MemoryHierarchy::default();
            let setup = solver(n, iters).build(&mut mem, &VectorContext::with_mvl(16));
            // The final iteration (index iters - 1) writes the planned xout
            // array when its index is even, the planned x array when odd.
            let expected = if (iters - 1) % 2 == 0 { xout } else { x };
            let out = setup.output("p0.xout");
            assert_eq!(
                (out.base, out.base + (out.values.len() * 8) as u64),
                expected,
                "{iters} iterations must converge in the {} array",
                if (iters - 1) % 2 == 0 { "xout" } else { "x" }
            );
            // No copies: only the two arrays are ever stored to for the
            // carried positions, alternating by iteration parity.
            for (k, mark) in setup.phase_marks.iter().enumerate() {
                let start = if k == 0 {
                    0
                } else {
                    setup.phase_marks[k - 1].ir_end
                };
                let writes_xout = setup.kernel.instrs[start..mark.ir_end]
                    .iter()
                    .filter(|i| i.opcode == ava_isa::Opcode::VStore)
                    .filter_map(|i| i.mem)
                    .filter(|m| m.base >= xout.0 && m.base < xout.1)
                    .count();
                let writes_x = setup.kernel.instrs[start..mark.ir_end]
                    .iter()
                    .filter(|i| i.opcode == ava_isa::Opcode::VStore)
                    .filter_map(|i| i.mem)
                    .filter(|m| m.base >= x.0 && m.base < x.1)
                    .count();
                if k % 2 == 0 {
                    assert!(writes_xout > 0 && writes_x == 0, "iteration {k}");
                } else {
                    assert!(writes_x > 0 && writes_xout == 0, "iteration {k}");
                }
            }
        }
    }

    #[test]
    fn single_iteration_matches_the_plain_body() {
        let mut mem = MemoryHierarchy::default();
        let ctx = VectorContext::with_mvl(16);
        let one = solver(128, 1).build(&mut mem, &ctx);
        let mut mem2 = MemoryHierarchy::default();
        let plain = Somier::relaxation(128).build(&mut mem2, &ctx);
        assert_eq!(one.kernel.len(), plain.kernel.len());
        assert_eq!(one.checks, plain.checks);
        assert_eq!(one.strips, plain.strips);
        assert_eq!(one.output("p0.vout").values, plain.output("vout").values);
    }

    #[test]
    fn in_place_carry_needs_no_swap() {
        // Axpy's y is InOut: carrying y -> y iterates truly in place. The
        // reference must still chain (y_k = a * x + y_{k-1}).
        let iterated = Composite::iterated(Arc::new(Axpy::new(64)), 3, links(&[("y", "y")]));
        let mut mem = MemoryHierarchy::default();
        let setup = iterated.build(&mut mem, &VectorContext::with_mvl(16));
        let mut gen = crate::data::DataGen::for_workload("axpy");
        let x = gen.uniform_vec(64, -1.0, 1.0);
        let mut y = gen.uniform_vec(64, -1.0, 1.0);
        for _ in 0..3 {
            for j in 0..64 {
                y[j] = 1.75f64.mul_add(x[j], y[j]);
            }
        }
        assert_eq!(setup.output("p0.y").values, y);
        // All three iterations write the same physical array.
        let plan =
            ArenaPlanner::new().plan(&mut MemoryHierarchy::default(), &iterated.data_layout());
        assert_eq!(setup.output("p0.y").base, plan.addr("p0.y"));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_composite_is_rejected() {
        let _ = Composite::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "no buffer named \"nope\"")]
    fn unknown_link_names_are_rejected() {
        let _ = Composite::pipelined(
            vec![Arc::new(Axpy::new(64)), Arc::new(Somier::new(64))],
            vec![links(&[("nope", "v")])],
        );
    }

    #[test]
    #[should_panic(expected = "cannot bind")]
    fn size_mismatched_links_are_rejected() {
        // Axpy's 64-element output cannot feed somier's 66-element halo
        // position array.
        let _ = Composite::pipelined(
            vec![Arc::new(Axpy::new(64)), Arc::new(Somier::new(64))],
            vec![links(&[("y", "x")])],
        );
    }

    #[test]
    #[should_panic(expected = "cannot be bound")]
    fn internal_buffers_are_rejected_at_construction() {
        // ParticleFilter's gather indices derive from its positions; a link
        // onto them must fail in the constructor, not mid-sweep.
        let _ = Composite::pipelined(
            vec![
                Arc::new(Axpy::new(64)),
                Arc::new(crate::ParticleFilter::new(64, 8)),
            ],
            vec![links(&[("y", "idx")])],
        );
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bound_inputs_are_rejected() {
        let _ = Composite::pipelined(
            vec![Arc::new(Somier::new(64)), Arc::new(Axpy::new(64))],
            vec![links(&[("xout", "x"), ("vout", "x")])],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate link: buffer \"y\"")]
    fn duplicate_link_pairs_are_rejected_with_the_buffer_name() {
        // A repeated (output, input) pair used to surface only as an opaque
        // overlapping-RebaseRule panic deep inside concat_remapped; the
        // constructor now names the offending buffer.
        let _ = Composite::pipelined(
            vec![Arc::new(Axpy::new(64)), Arc::new(Somier::new(64))],
            vec![links(&[("y", "v"), ("y", "v")])],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate link: buffer \"xout\"")]
    fn duplicate_carry_pairs_are_rejected() {
        let _ = Composite::iterated(
            Arc::new(Somier::relaxation(64)),
            2,
            links(&[("xout", "x"), ("xout", "x")]),
        );
    }

    #[test]
    #[should_panic(expected = "appears in more than one carry link")]
    fn carry_buffers_with_two_swap_partners_are_rejected() {
        // One output fanned into two inputs passes the duplicate-pair and
        // bound-twice checks but would build overlapping ping-pong rules;
        // the constructor must name the buffer instead of panicking inside
        // concat_remapped on a sweep worker thread. Somier's relaxation
        // xout matches both x (halo-sized) and... nothing else, so use
        // axpy, whose x and y are both n-sized.
        let _ = Composite::iterated(Arc::new(Axpy::new(64)), 2, links(&[("y", "x"), ("y", "y")]));
    }

    #[test]
    fn an_output_linked_to_an_in_place_input_and_another_constructs_in_either_order() {
        // Axpy binds somier's vout both as x and in place as y. Each strip
        // loads both operands before it stores y over them, so no element
        // is read after it was overwritten, whichever link comes first.
        for pairs in [
            [("vout", "y"), ("vout", "x")],
            [("vout", "x"), ("vout", "y")],
        ] {
            let mix = Composite::pipelined(
                vec![Arc::new(Somier::new(64)), Arc::new(Axpy::new(64))],
                vec![links(&pairs)],
            );
            let mut mem = MemoryHierarchy::default();
            let setup = mix.build(&mut mem, &VectorContext::with_mvl(16));
            // Axpy's y lands in somier's vout, in place.
            assert_eq!(setup.output("p1.y").base, setup.output("p0.vout").base);
        }
    }

    #[test]
    #[should_panic(expected = "a composite takes no input bindings")]
    fn links_into_a_composite_phase_are_rejected_at_construction() {
        let inner: SharedWorkload = Arc::new(Composite::pipelined(
            vec![Arc::new(Somier::new(64)), Arc::new(Axpy::new(64))],
            vec![links(&[("xout", "x"), ("vout", "y")])],
        ));
        let _ = Composite::pipelined(
            vec![Arc::new(Axpy::new(64)), inner],
            vec![links(&[("y", "p0.v")])],
        );
    }

    #[test]
    #[should_panic(expected = "a composite takes no input bindings")]
    fn carries_into_a_composite_body_are_rejected_at_construction() {
        let body: SharedWorkload = Arc::new(Composite::new(vec![Arc::new(Somier::relaxation(64))]));
        let _ = Composite::iterated(body, 2, links(&[("p0.xout", "p0.x")]));
    }

    #[test]
    fn unlinked_composite_phases_build_and_validate() {
        let inner: SharedWorkload = Arc::new(solver(64, 2));
        let outer = Composite::new(vec![Arc::new(Axpy::new(64)), inner]);
        let mut mem = MemoryHierarchy::default();
        let setup = outer.build(&mut mem, &VectorContext::with_mvl(16));
        assert_eq!(setup.phase_marks.len(), 2);
        for c in &setup.checks {
            mem.write_f64(c.addr, c.expected);
        }
        assert!(validate(&mem, &setup.checks).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_are_rejected() {
        let _ = Composite::iterated(Arc::new(Somier::relaxation(64)), 0, Vec::new());
    }

    #[test]
    #[should_panic(expected = "pure input")]
    fn consuming_a_pure_input_is_rejected() {
        let _ = Composite::pipelined(
            vec![Arc::new(Axpy::new(64)), Arc::new(Somier::new(64))],
            vec![links(&[("x", "v")])],
        );
    }
}
