//! The data-layout planning layer of the two-step workload protocol.
//!
//! Workloads no longer allocate their arrays imperatively while generating
//! code. Instead every workload first *declares* its named input/output
//! buffers ([`DataLayout`], step 1), a shared [`ArenaPlanner`] places them in
//! the simulated address space, and only then does the workload generate its
//! IR and golden reference against the resolved [`PlannedLayout`] (step 2,
//! [`Workload::build_with_bindings`]).
//!
//! The split is what makes *dataflow composites* expressible: a pipelined
//! composite can bind one phase's declared output buffer to the next phase's
//! declared input — the consumer then skips generating its own input data,
//! computes its golden reference over the producer's reference values
//! ([`BufferBindings`]), and reads the producer's real output at run time.
//! The planner also becomes the single source of truth for cache warm-up
//! ranges, replacing the hand-maintained whole-region warming.
//!
//! [`Workload::build_with_bindings`]: crate::Workload::build_with_bindings

use std::collections::BTreeMap;

use ava_memory::MemoryHierarchy;

/// How a workload uses a declared buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRole {
    /// Read-only input data (bindable in a pipelined composite).
    Input,
    /// Output written by the kernel (exposable to a downstream phase).
    Output,
    /// Read *and* written in place (bindable and exposable; e.g. Axpy's `y`).
    InOut,
    /// Input data the workload derives internally from its other inputs
    /// (e.g. ParticleFilter's gather-index buffer, computed from the
    /// positions): planned and warmed like an input, but neither bindable
    /// nor exposable — `Composite::pipelined` rejects links onto it at
    /// construction.
    Internal,
}

impl BufferRole {
    /// Whether a pipelined composite may bind this buffer to an upstream
    /// phase's output.
    #[must_use]
    pub fn is_bindable(self) -> bool {
        matches!(self, BufferRole::Input | BufferRole::InOut)
    }

    /// Whether a downstream phase may consume this buffer as its input.
    #[must_use]
    pub fn is_exposable(self) -> bool {
        matches!(self, BufferRole::Output | BufferRole::InOut)
    }
}

/// One declared buffer: a name, a size in `f64` elements and a role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSpec {
    /// Buffer name, unique within one workload's layout ("x", "vout", ...).
    pub name: String,
    /// Size in 8-byte elements.
    pub elems: usize,
    /// How the kernel uses the buffer.
    pub role: BufferRole,
}

/// The declared data layout of a workload: its named buffers, in the order
/// they should be placed (placement order is part of the contract — it fixes
/// the simulated addresses and therefore the cache behaviour).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataLayout {
    /// Declared buffers in placement order.
    pub buffers: Vec<BufferSpec>,
}

impl DataLayout {
    /// An empty layout to be filled with the `declare_*` methods.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&mut self, name: impl Into<String>, elems: usize, role: BufferRole) {
        let name = name.into();
        assert!(elems > 0, "buffer {name} must have at least one element");
        assert!(
            !self.buffers.iter().any(|b| b.name == name),
            "duplicate buffer name {name}"
        );
        self.buffers.push(BufferSpec { name, elems, role });
    }

    /// Declares an input buffer of `elems` elements.
    pub fn input(&mut self, name: impl Into<String>, elems: usize) {
        self.declare(name, elems, BufferRole::Input);
    }

    /// Declares an output buffer of `elems` elements.
    pub fn output(&mut self, name: impl Into<String>, elems: usize) {
        self.declare(name, elems, BufferRole::Output);
    }

    /// Declares an in-place input/output buffer of `elems` elements.
    pub fn inout(&mut self, name: impl Into<String>, elems: usize) {
        self.declare(name, elems, BufferRole::InOut);
    }

    /// Declares an internally-derived buffer of `elems` elements (planned
    /// and warmed, but not bindable or exposable).
    pub fn internal(&mut self, name: impl Into<String>, elems: usize) {
        self.declare(name, elems, BufferRole::Internal);
    }

    /// The declared buffer named `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&BufferSpec> {
        self.buffers.iter().find(|b| b.name == name)
    }
}

/// A declared buffer with its resolved base address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedBuffer {
    /// The declared spec.
    pub spec: BufferSpec,
    /// Base address in the simulated address space.
    pub base: u64,
}

impl PlannedBuffer {
    /// Size of the buffer in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.spec.elems * 8) as u64
    }

    /// Address range `[base, base + bytes)` of the buffer.
    #[must_use]
    pub fn range(&self) -> (u64, u64) {
        (self.base, self.base + self.bytes())
    }
}

/// A workload's declared layout after placement by the [`ArenaPlanner`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlannedLayout {
    buffers: Vec<PlannedBuffer>,
}

impl PlannedLayout {
    /// All planned buffers, in placement order.
    #[must_use]
    pub fn buffers(&self) -> &[PlannedBuffer] {
        &self.buffers
    }

    /// Feeds this layout's full identity — buffer names, sizes, roles and
    /// resolved base addresses, in placement order — into a result-store
    /// fingerprint. Any change that moves or resizes a buffer changes the
    /// simulated cache behaviour, so it must change the fingerprint too.
    pub fn fingerprint(&self, h: &mut crate::fingerprint::Fingerprint) {
        h.write_u64(self.buffers.len() as u64);
        for b in &self.buffers {
            h.write_str(&b.spec.name);
            h.write_u64(b.spec.elems as u64);
            h.write_u64(match b.spec.role {
                BufferRole::Input => 0,
                BufferRole::Output => 1,
                BufferRole::InOut => 2,
                BufferRole::Internal => 3,
            });
            h.write_u64(b.base);
        }
    }

    /// The planned buffer named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no buffer of that name was declared.
    #[must_use]
    pub fn buffer(&self, name: &str) -> &PlannedBuffer {
        self.buffers
            .iter()
            .find(|b| b.spec.name == name)
            .unwrap_or_else(|| panic!("no buffer named {name:?} in the planned layout"))
    }

    /// Base address of the buffer named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no buffer of that name was declared.
    #[must_use]
    pub fn addr(&self, name: &str) -> u64 {
        self.buffer(name).base
    }

    /// Extracts the sub-layout whose buffer names start with `prefix`,
    /// stripping the prefix (used by composites, whose union layout prefixes
    /// each phase's buffers with `p{i}.`).
    #[must_use]
    pub fn subset(&self, prefix: &str) -> PlannedLayout {
        PlannedLayout {
            buffers: self
                .buffers
                .iter()
                .filter_map(|b| {
                    b.spec.name.strip_prefix(prefix).map(|name| PlannedBuffer {
                        spec: BufferSpec {
                            name: name.to_string(),
                            elems: b.spec.elems,
                            role: b.spec.role,
                        },
                        base: b.base,
                    })
                })
                .collect(),
        }
    }

    /// Cache warm-up ranges for this layout: every buffer's address range
    /// except the buffers named in `bindings` — a bound input buffer is a
    /// dead placeholder (the kernel's accesses to it are rebased onto the
    /// upstream phase's output), so warming it would only pollute the cache.
    #[must_use]
    pub fn warm_ranges(&self, bindings: &BufferBindings) -> Vec<(u64, u64)> {
        self.buffers
            .iter()
            .filter(|b| !bindings.is_bound(&b.spec.name))
            .map(PlannedBuffer::range)
            .collect()
    }
}

/// The allocator of the planning step: turns declared [`DataLayout`]s into
/// [`PlannedLayout`]s by placing every buffer in the hierarchy's bump
/// allocator, in declaration order.
#[derive(Debug, Default)]
pub struct ArenaPlanner;

impl ArenaPlanner {
    /// A planner.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Places every declared buffer of `layout` in `mem`'s allocator, in
    /// declaration order, and returns the resolved layout.
    pub fn plan(&mut self, mem: &mut MemoryHierarchy, layout: &DataLayout) -> PlannedLayout {
        let buffers = layout
            .buffers
            .iter()
            .map(|spec| PlannedBuffer {
                spec: spec.clone(),
                base: mem.allocate((spec.elems * 8) as u64),
            })
            .collect();
        PlannedLayout { buffers }
    }
}

/// Externally-bound input buffers of one `build_with_bindings` call: for
/// each bound input name, the *reference* values the upstream phase leaves
/// in the buffer the input is rebased onto. A bound input generates no data
/// of its own — its golden reference is computed over these values, chaining
/// the scalar models across phases.
#[derive(Debug, Clone, Default)]
pub struct BufferBindings {
    values: BTreeMap<String, Vec<f64>>,
}

impl BufferBindings {
    /// No bindings: every input generates its own data (the classic
    /// stand-alone build).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Binds the input named `name` to the given upstream reference values.
    pub fn bind(&mut self, name: impl Into<String>, values: Vec<f64>) {
        self.values.insert(name.into(), values);
    }

    /// Whether the input named `name` is bound.
    #[must_use]
    pub fn is_bound(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The bound reference values for `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.values.get(name).map(Vec::as_slice)
    }

    /// The bound input names, in name order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

/// Materialises one input buffer of a planned layout: a bound input returns
/// the upstream reference values (the data already lives — or will live, by
/// the time this phase runs — at the address the kernel is rebased onto,
/// which is the *binder's* responsibility to arrange); an unbound input
/// generates its data with `gen` and writes it into the functional memory
/// at the planned address.
///
/// The generator closure is invoked (and its output discarded) even for a
/// bound input, so a workload's shared random stream stays at the same
/// position for every later buffer — the phase's remaining unbound inputs
/// receive exactly the data a stand-alone run would, and a pipelined-vs-
/// independent comparison differs only in the bound buffers.
///
/// # Panics
///
/// Panics if a bound value vector does not match the declared buffer size,
/// or if the buffer's role is not bindable.
pub fn materialize_input(
    mem: &mut MemoryHierarchy,
    plan: &PlannedLayout,
    bindings: &BufferBindings,
    name: &str,
    gen: impl FnOnce() -> Vec<f64>,
) -> Vec<f64> {
    let buf = plan.buffer(name);
    if let Some(bound) = bindings.get(name) {
        assert!(
            buf.spec.role.is_bindable(),
            "buffer {name:?} has role {:?} and cannot be bound",
            buf.spec.role
        );
        assert_eq!(
            bound.len(),
            buf.spec.elems,
            "binding for {name:?} carries {} values but the buffer holds {} elements",
            bound.len(),
            buf.spec.elems
        );
        let _ = gen();
        return bound.to_vec();
    }
    let values = gen();
    assert_eq!(
        values.len(),
        buf.spec.elems,
        "generated {} values for {name:?} but the buffer holds {} elements",
        values.len(),
        buf.spec.elems
    );
    mem.memory_mut().write_f64_slice(buf.base, &values);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> DataLayout {
        let mut l = DataLayout::new();
        l.input("x", 16);
        l.inout("y", 16);
        l.output("z", 8);
        l
    }

    #[test]
    fn planner_places_buffers_in_declaration_order() {
        let mut mem = MemoryHierarchy::default();
        let mut planner = ArenaPlanner::new();
        let plan = planner.plan(&mut mem, &layout());
        assert!(plan.addr("x") < plan.addr("y"));
        assert!(plan.addr("y") < plan.addr("z"));
        assert_eq!(plan.buffer("z").bytes(), 64);
    }

    #[test]
    fn warm_ranges_skip_bound_inputs() {
        let mut mem = MemoryHierarchy::default();
        let plan = ArenaPlanner::new().plan(&mut mem, &layout());
        let mut bindings = BufferBindings::none();
        bindings.bind("x", vec![0.0; 16]);
        let warm = plan.warm_ranges(&bindings);
        assert_eq!(warm.len(), 2);
        assert_eq!(warm[0], plan.buffer("y").range());
    }

    #[test]
    fn materialize_writes_generated_data_but_not_bound_data() {
        let mut mem = MemoryHierarchy::default();
        let plan = ArenaPlanner::new().plan(&mut mem, &layout());
        let mut bindings = BufferBindings::none();
        bindings.bind("y", vec![7.0; 16]);
        let x = materialize_input(&mut mem, &plan, &bindings, "x", || vec![3.0; 16]);
        let mut gen_ran = false;
        let y = materialize_input(&mut mem, &plan, &bindings, "y", || {
            // The generator still runs (its draws keep the shared random
            // stream aligned with a stand-alone build) but is discarded.
            gen_ran = true;
            vec![9.0; 16]
        });
        assert_eq!(x, vec![3.0; 16]);
        assert_eq!(y, vec![7.0; 16]);
        assert!(gen_ran);
        assert_eq!(mem.read_f64(plan.addr("x")), 3.0);
        // Bound inputs are not written: the upstream phase's run produces
        // the real data at the rebased address.
        assert_eq!(mem.read_f64(plan.addr("y")), 0.0);
    }

    #[test]
    fn binding_does_not_shift_the_stream_for_later_buffers() {
        use crate::data::DataGen;
        let mut mem = MemoryHierarchy::default();
        let plan = ArenaPlanner::new().plan(&mut mem, &layout());

        // Stand-alone: both buffers draw from one stream.
        let mut gen = DataGen::from_seed(42);
        let _x_alone = gen.uniform_vec(16, 0.0, 1.0);
        let y_alone = gen.uniform_vec(16, 0.0, 1.0);

        // With "x" bound, "y" must still receive the second draw block.
        let mut bindings = BufferBindings::none();
        bindings.bind("x", vec![0.5; 16]);
        let mut gen = DataGen::from_seed(42);
        let _ = materialize_input(&mut mem, &plan, &bindings, "x", || {
            gen.uniform_vec(16, 0.0, 1.0)
        });
        let y = materialize_input(&mut mem, &plan, &bindings, "y", || {
            gen.uniform_vec(16, 0.0, 1.0)
        });
        assert_eq!(y, y_alone);
    }

    #[test]
    fn subset_strips_the_phase_prefix() {
        let mut union = DataLayout::new();
        union.input("p0.x", 4);
        union.output("p0.y", 4);
        union.input("p1.x", 4);
        let mut mem = MemoryHierarchy::default();
        let plan = ArenaPlanner::new().plan(&mut mem, &union);
        let p1 = plan.subset("p1.");
        assert_eq!(p1.buffers().len(), 1);
        assert_eq!(p1.addr("x"), plan.addr("p1.x"));
    }

    #[test]
    #[should_panic(expected = "duplicate buffer name")]
    fn duplicate_names_are_rejected() {
        let mut l = DataLayout::new();
        l.input("x", 4);
        l.input("x", 8);
    }

    #[test]
    #[should_panic(expected = "cannot be bound")]
    fn binding_an_output_is_rejected() {
        let mut mem = MemoryHierarchy::default();
        let plan = ArenaPlanner::new().plan(&mut mem, &layout());
        let mut bindings = BufferBindings::none();
        bindings.bind("z", vec![0.0; 8]);
        let _ = materialize_input(&mut mem, &plan, &bindings, "z", || vec![0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "carries 4 values")]
    fn size_mismatched_bindings_are_rejected() {
        let mut mem = MemoryHierarchy::default();
        let plan = ArenaPlanner::new().plan(&mut mem, &layout());
        let mut bindings = BufferBindings::none();
        bindings.bind("x", vec![0.0; 4]);
        let _ = materialize_input(&mut mem, &plan, &bindings, "x", || unreachable!());
    }
}
