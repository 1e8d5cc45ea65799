//! The decoupled VPU model: cycle-level timing of a vector program on one
//! configuration (AVA, NATIVE or RG).
//!
//! The model processes the dynamic vector instruction stream in program
//! order and computes, for every instruction, the cycle at which each
//! pipeline stage would handle it, honouring the structural resources of the
//! design: the one-instruction-per-cycle front end, the renamed-register
//! pools (VVRs or physical registers), the physical-register file and its
//! Swap Mechanism (AVA), the two decoupled in-order issue queues, the single
//! arithmetic and single memory pipeline, the reorder buffer, and the shared
//! memory hierarchy.
//!
//! The timing core moves no element values. A program's values are the same
//! on every organisation, so they are computed once, in program order on
//! architectural registers ([`FunctionalState`]); the timing core takes only
//! the element addresses of indexed accesses from that pass
//! ([`Vpu::time_range`]). What the per-point run still proves is that the
//! renaming and swap data path delivers the right value to every reader:
//! each physical register and each M-VRF slot carries a tag, the id of the
//! instruction whose value it holds. Write-back sets the tag, a Swap-Store
//! copies it to the M-VRF slot, a Swap-Load copies it back, and every source
//! read compares it with the program-order last writer of the architectural
//! register ([`Vpu::tag_error`]). [`Vpu::run`] runs both halves, so it
//! leaves the program's results in memory.

use ava_isa::{
    ExecClass, InstrKind, InstrRole, Opcode, Program, VReg, VecInstr, VlMode, NUM_LOGICAL_VREGS,
};
use ava_memory::{AccessTiming, MainMemory, MemoryHierarchy};

use crate::config::{RenameMode, VpuConfig};
use crate::exec::{element_addr, FunctionalState};
use crate::issue::IssueQueue;
use crate::mvrf::MemoryVrf;
use crate::rac::Rac;
use crate::rename::{RenameUnit, RenamedReg};
use crate::rob::ReorderBuffer;
use crate::stats::VpuStats;
use crate::swap::{plan_free_register, SwapDecision};
use crate::vrf_mapping::{Location, VrfMapping};

/// Result of running one program on one VPU configuration.
#[derive(Debug, Clone)]
pub struct VpuRunResult {
    /// Configuration name the program ran on.
    pub config_name: String,
    /// Total VPU cycles until the last instruction committed.
    pub cycles: u64,
    /// Instruction and energy-relevant event counters.
    pub stats: VpuStats,
}

impl VpuRunResult {
    /// Execution time in seconds at the VPU clock frequency (1 GHz).
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / 1.0e9
    }
}

/// The decoupled vector processing unit.
///
/// See the crate-level documentation for a usage example.
#[derive(Debug, Clone)]
pub struct Vpu {
    config: VpuConfig,
    // -------- structural state --------
    rename: RenameUnit,
    mapping: VrfMapping,
    rac: Rac,
    mvrf: Option<MemoryVrf>,
    rob: ReorderBuffer,
    arith_q: IssueQueue,
    mem_q: IssueQueue,
    // -------- timing state --------
    frontend_free: u64,
    arith_unit_free: u64,
    mem_unit_free: u64,
    /// Cycle at which each renamed register's current value is available.
    value_ready: Vec<u64>,
    /// Cycle at which each renamed register becomes allocatable again after
    /// being released (old destination freed at commit).
    renamed_free_at: Vec<u64>,
    /// Cycle at which each physical register may be overwritten by a new
    /// producer (previous readers done / swap-store drained / commit).
    preg_writable: Vec<u64>,
    /// Latest completion among readers of each physical register's value.
    preg_readers_done: Vec<u64>,
    /// Whether the M-VRF slot of each VVR already holds the current value
    /// (a VVR is written once, so a second eviction needs no Swap-Store).
    mvrf_clean: Vec<bool>,
    // -------- register tags (ids of the instructions whose values the
    // registers hold; 0 is the reset value) --------
    /// Id of the instruction being processed (the first is 1).
    instr_id: u64,
    /// Tag of each physical register.
    preg_tag: Vec<u64>,
    /// Tag of each VVR's M-VRF slot.
    mvrf_tag: Vec<u64>,
    /// Program-order last writer of each architectural register.
    arch_writer: [u64; NUM_LOGICAL_VREGS],
    /// The first source read whose tag was not its last writer's.
    tag_error: Option<String>,
    // -------- scratch buffers (reused across instructions) --------
    /// This instruction's logical source registers.
    src_regs_buf: Vec<VReg>,
    /// Renamed registers that must not be evicted mid-instruction.
    protected_buf: Vec<RenamedReg>,
    /// Physical register of each register source, in operand order.
    src_pregs_buf: Vec<usize>,
    /// Per-element addresses of strided accesses.
    addr_buf: Vec<u64>,
    /// Architectural state of [`Vpu::run_range`]'s functional pass, made on
    /// its first call.
    functional: Option<FunctionalState>,
    // -------- architectural state --------
    vl: usize,
    stats: VpuStats,
    finish_time: u64,
}

impl Vpu {
    /// Builds a VPU for `config`. For AVA configurations this reserves the
    /// M-VRF backing store in the memory hierarchy (the paper's
    /// `set_virtual_vrf` step).
    #[must_use]
    pub fn new(config: VpuConfig, mem: &mut MemoryHierarchy) -> Self {
        let pregs = config.physical_regs();
        let pool = config.rename_pool();
        let mvrf = Self::reserve_mvrf(&config, mem.memory_mut());
        Self {
            rename: RenameUnit::new(pool),
            mapping: VrfMapping::new(pool, pregs),
            rac: Rac::new(pool),
            mvrf,
            rob: ReorderBuffer::new(config.rob_entries),
            arith_q: IssueQueue::new(config.arith_queue_entries),
            mem_q: IssueQueue::new(config.mem_queue_entries),
            frontend_free: 0,
            arith_unit_free: 0,
            mem_unit_free: 0,
            value_ready: vec![0; pool],
            renamed_free_at: vec![0; pool],
            preg_writable: vec![0; pregs],
            preg_readers_done: vec![0; pregs],
            mvrf_clean: vec![false; pool],
            instr_id: 0,
            preg_tag: vec![0; pregs],
            mvrf_tag: vec![0; pool],
            arch_writer: [0; NUM_LOGICAL_VREGS],
            tag_error: None,
            src_regs_buf: Vec::new(),
            protected_buf: Vec::new(),
            src_pregs_buf: Vec::new(),
            addr_buf: Vec::new(),
            functional: None,
            vl: config.mvl,
            stats: VpuStats::default(),
            finish_time: 0,
            config,
        }
    }

    /// Reserves the M-VRF backing store of a VPU built for `config` in
    /// `memory`, as [`Vpu::new`] does: AVA only, at the next allocation.
    /// On an allocator-only copy of the memory this says ahead of time
    /// where the M-VRF will lie.
    pub fn reserve_mvrf(config: &VpuConfig, memory: &mut MainMemory) -> Option<MemoryVrf> {
        match config.mode {
            RenameMode::Ava => Some(MemoryVrf::allocate(memory, config.vvr_count, config.mvl)),
            RenameMode::Native => None,
        }
    }

    /// The configuration this VPU was built with.
    #[must_use]
    pub fn config(&self) -> &VpuConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &VpuStats {
        &self.stats
    }

    /// The first register-tag mismatch so far, naming the reading
    /// instruction, the VVR and the physical register: a source read found
    /// the value of another instruction than the program-order last writer
    /// of its architectural register. `None` while every read was right.
    #[must_use]
    pub fn tag_error(&self) -> Option<&str> {
        self.tag_error.as_deref()
    }

    /// Runs a program to completion, returning cycle count and statistics.
    /// The VPU keeps its architectural state afterwards, so several programs
    /// can be run back to back on the same instance.
    pub fn run(&mut self, program: &Program, mem: &mut MemoryHierarchy) -> VpuRunResult {
        self.run_range(program, 0..program.len(), mem)
    }

    /// Runs the instructions `range` of `program`, returning the cycle count
    /// and statistics of that segment alone: the functional pass over the
    /// range, which leaves its results in `mem`, then [`Vpu::time_range`]
    /// on the addresses it recorded. Because the VPU keeps all its state
    /// between calls, running a program as consecutive segments is
    /// observationally identical to one [`Vpu::run`] over the whole program
    /// — the per-segment results simply partition the totals.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn run_range(
        &mut self,
        program: &Program,
        range: std::ops::Range<usize>,
        mem: &mut MemoryHierarchy,
    ) -> VpuRunResult {
        let mvl = self.config.mvl;
        let mut indexed = Vec::new();
        self.functional
            .get_or_insert_with(|| FunctionalState::new(mvl))
            .run(
                &program.instructions()[range.clone()],
                mem.memory_mut(),
                &mut indexed,
            );
        self.time_range(program, range, mem, &mut indexed.as_slice())
    }

    /// Times the instructions `range` of `program` without executing them,
    /// returning the cycle count and statistics of that segment alone.
    /// `indexed_addrs` holds the element addresses of the segment's gathers
    /// and scatters in program order, as [`FunctionalState::run`] records
    /// them; each indexed access consumes its addresses from the front.
    /// Segments run back to back partition the totals of one run, which is
    /// how the simulator reports per-phase breakdowns of multi-kernel
    /// composites.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or `indexed_addrs` runs out.
    pub fn time_range(
        &mut self,
        program: &Program,
        range: std::ops::Range<usize>,
        mem: &mut MemoryHierarchy,
        indexed_addrs: &mut &[u64],
    ) -> VpuRunResult {
        let start_stats = self.stats;
        let start_time = self.finish_time;
        for instr in &program.instructions()[range] {
            self.step(instr, mem, indexed_addrs);
        }
        let mut stats = self.stats;
        subtract_stats(&mut stats, &start_stats);
        VpuRunResult {
            config_name: self.config.name.clone(),
            cycles: self.finish_time.saturating_sub(start_time),
            stats,
        }
    }

    // ------------------------------------------------------------------
    // Per-instruction processing
    // ------------------------------------------------------------------

    fn step(&mut self, instr: &VecInstr, mem: &mut MemoryHierarchy, indexed_addrs: &mut &[u64]) {
        self.instr_id += 1;
        // Front end: one instruction per cycle, gated by ROB occupancy.
        let dispatch = self.rob.admit_time(self.frontend_free);
        self.frontend_free = dispatch + self.config.frontend_cycles_per_instr;

        if instr.kind() == InstrKind::Config {
            let requested = instr.setvl_request.unwrap_or(self.config.mvl);
            self.vl = requested.min(self.config.mvl);
            self.stats.config_instrs += 1;
            let commit = self.rob.push(dispatch, dispatch + 1);
            self.finish_time = self.finish_time.max(commit);
            return;
        }

        let vl_eff = match instr.vl_mode {
            VlMode::Current => self.vl,
            VlMode::FullMvl => self.config.mvl,
        };

        // ---------------- first-level renaming ----------------
        self.src_regs_buf.clear();
        self.src_regs_buf.extend(instr.source_regs());
        let renamed = self
            .rename
            .rename(instr.dst, &self.src_regs_buf)
            .unwrap_or_else(|e| panic!("rename failed for `{instr}`: {e}"));
        let mut rename_time = dispatch;
        if let Some(d) = renamed.dst {
            // The renamed register popped from the FRL may still be draining
            // (it is released functionally at processing time but only
            // becomes available at the releasing instruction's commit).
            let free_at = self.renamed_free_at[d as usize];
            if free_at > rename_time {
                self.stats.rename_stall_cycles += free_at - rename_time;
                rename_time = free_at;
            }
        }

        // RAC bookkeeping (rename-time updates, §III.C).
        if self.config.mode == RenameMode::Ava {
            if let Some(d) = renamed.dst {
                self.rac.increment(d);
            }
            for &s in &renamed.srcs {
                self.rac.increment(s);
            }
            if let Some(old) = renamed.old_dst {
                self.rac.decrement(old);
            }
        }

        // ---------------- pre-issue: VVR -> physical mapping ----------------
        // The scratch vectors are moved out of `self` for the duration of
        // the instruction (the swap path needs `&mut self`) and moved back
        // at the end, so the steady state allocates nothing.
        let mut preissue_time = rename_time + 1;
        let mut protected = std::mem::take(&mut self.protected_buf);
        protected.clear();
        protected.extend_from_slice(&renamed.srcs);
        if let Some(d) = renamed.dst {
            protected.push(d);
        }

        // Map (and if needed swap in) every source VVR, then the destination.
        let mut src_pregs = std::mem::take(&mut self.src_pregs_buf);
        src_pregs.clear();
        let dst_preg = match self.config.mode {
            RenameMode::Native => {
                // Renamed registers *are* physical registers.
                src_pregs.extend(renamed.srcs.iter().map(|&r| r as usize));
                renamed.dst.map(|d| d as usize)
            }
            RenameMode::Ava => {
                for &vvr in &renamed.srcs {
                    let preg = self.ensure_resident(vvr, &protected, &mut preissue_time, mem);
                    src_pregs.push(preg);
                }
                renamed
                    .dst
                    .map(|vvr| self.allocate_preg_for(vvr, &protected, &mut preissue_time, mem))
            }
        };

        // ---------------- register-tag check ----------------
        for (i, &preg) in src_pregs.iter().enumerate() {
            let reg = self.src_regs_buf[i];
            let writer = self.arch_writer[reg.index()];
            if self.preg_tag[preg] != writer && self.tag_error.is_none() {
                self.tag_error = Some(format!(
                    "instruction {} `{instr}` read {reg} as VVR {} in physical register {preg}, \
                     which holds the value of instruction {}, not of its last writer {writer}",
                    self.instr_id, renamed.srcs[i], self.preg_tag[preg]
                ));
            }
        }

        // ---------------- issue + execute timing ----------------
        let mut data_ready = preissue_time;
        for &s in &renamed.srcs {
            data_ready = data_ready.max(self.value_ready[s as usize]);
        }
        let operands_ready = data_ready;

        let (_start, chain_ready, mut completion) = match instr.kind() {
            InstrKind::Memory => {
                let timing = self.memory_timing(instr, vl_eff, mem, indexed_addrs);
                // Stores issue as soon as their address is ready: the data is
                // streamed from the register file while it is being produced
                // (chaining through the store data path), so the issue gate
                // only covers the address phase. Loads and arithmetic wait
                // for their operands.
                let issue_gate = if instr.opcode.is_store() {
                    preissue_time
                } else {
                    operands_ready
                };
                self.schedule_memory(preissue_time, issue_gate, &timing)
            }
            InstrKind::Arithmetic => {
                self.schedule_arith(instr.opcode, preissue_time, operands_ready, vl_eff)
            }
            InstrKind::Config => unreachable!("config handled above"),
        };
        if instr.opcode.is_store() {
            // A store cannot complete before the data it writes exists.
            completion = completion.max(data_ready + 1);
        }
        if let Some(p) = dst_preg {
            // The destination's physical register may still be draining (its
            // previous value awaiting commit or a swap-store); execution can
            // start, but the writeback — and therefore completion — waits.
            completion = completion.max(self.preg_writable[p] + 1);
        }

        // Record value/production times and reader times. Dependent
        // instructions may *chain* on the producer as soon as its first
        // element group is available, not only at full completion.
        if let Some(d) = renamed.dst {
            self.value_ready[d as usize] = chain_ready;
        }
        for &p in &src_pregs {
            self.preg_readers_done[p] = self.preg_readers_done[p].max(completion);
        }

        // Commit in order; release the old destination at commit.
        let commit = self.rob.push(dispatch, completion);
        self.finish_time = self.finish_time.max(commit);
        if let Some(old) = renamed.old_dst {
            self.release_renamed(old, commit);
        }
        if self.config.mode == RenameMode::Ava {
            // Source-read decrements. The hardware applies them at commit for
            // recovery safety; the model applies them as soon as the reading
            // instruction is processed, which lets the counters reflect
            // "no remaining consumers" with the same precision the in-order
            // pipeline would observe.
            for &s in &renamed.srcs {
                self.rac.decrement(s);
            }
        }

        // Write-back: the destination register now holds this
        // instruction's value, `vl` elements of it (a reduction writes at
        // least its one result element).
        if let (Some(preg), Some(reg)) = (dst_preg, instr.dst) {
            self.preg_tag[preg] = self.instr_id;
            self.arch_writer[reg.index()] = self.instr_id;
            let elems = if instr.opcode.exec_class() == ExecClass::Reduction {
                vl_eff.max(1)
            } else {
                vl_eff
            };
            self.stats.vrf_write_elems += elems as u64;
        }

        self.count_instruction(instr, vl_eff, &src_pregs);

        // Return the scratch vectors for the next instruction.
        self.protected_buf = protected;
        self.src_pregs_buf = src_pregs;
    }

    // ------------------------------------------------------------------
    // AVA swap mechanism
    // ------------------------------------------------------------------

    /// Ensures `vvr` is resident in the P-VRF, generating a Swap-Load (and a
    /// preceding Swap-Store if no register is free). Returns its physical
    /// register.
    fn ensure_resident(
        &mut self,
        vvr: RenamedReg,
        protected: &[RenamedReg],
        preissue_time: &mut u64,
        mem: &mut MemoryHierarchy,
    ) -> usize {
        match self.mapping.location(vvr) {
            Location::Physical(p) => p,
            Location::Memory => {
                let _free_ready = self.free_one_preg(protected, *preissue_time, mem);
                let preg = self
                    .mapping
                    .allocate_physical(vvr)
                    .expect("a physical register was just freed");
                // Swap-Load: M-VRF -> P-VRF, through the vector memory unit.
                // The physical register now holds the slot's value.
                let mvrf = self.mvrf.expect("AVA configurations have an M-VRF");
                let slot = mvrf.slot_addr(vvr);
                self.preg_tag[preg] = self.mvrf_tag[vvr as usize];
                let timing = mem.vector_access(slot, (self.config.mvl * 8) as u64, false);
                // Rule 2 (§III.C): the Swap-Load data may not overwrite the
                // physical register before the previous consumers have read
                // it. The fetch itself may start earlier (the incoming data
                // waits in the memory unit), so the gate applies to the
                // write-back side, not to the memory-queue issue slot.
                let ready = (*preissue_time).max(self.value_ready[vvr as usize]);
                let gate = self.preg_writable[preg].max(self.preg_readers_done[preg]);
                let (_, chain_ready, completion) =
                    self.schedule_memory(*preissue_time, ready, &timing);
                let chain_ready = chain_ready.max(gate + 1);
                let completion = completion.max(gate + 1);
                self.stats.swap_loads += 1;
                self.stats.vrf_write_elems += self.config.mvl as u64;
                // Consumers may chain on the Swap-Load as its data streams in;
                // the physical register is fully reusable only at completion.
                self.value_ready[vvr as usize] = chain_ready;
                self.preg_writable[preg] = completion;
                preg
            }
            Location::Unmapped => {
                panic!("VVR {vvr} read before any instruction produced it")
            }
        }
    }

    /// Allocates a physical register for a destination VVR, swapping a
    /// victim out to the M-VRF if necessary.
    fn allocate_preg_for(
        &mut self,
        vvr: RenamedReg,
        protected: &[RenamedReg],
        preissue_time: &mut u64,
        mem: &mut MemoryHierarchy,
    ) -> usize {
        // A destination VVR that is still mapped (e.g. an accumulator
        // written through `vfmacc` reading its own old value) keeps its
        // register.
        if let Location::Physical(p) = self.mapping.location(vvr) {
            return p;
        }
        if self.mapping.location(vvr) == Location::Memory {
            // The old contents are irrelevant (it is being overwritten), but
            // the mapping must move back to the P-VRF.
            return self.ensure_resident(vvr, protected, preissue_time, mem);
        }
        let _ = self.free_one_preg(protected, *preissue_time, mem);
        self.mapping
            .allocate_physical(vvr)
            .expect("a physical register was just freed")
    }

    /// Makes sure at least one physical register is free, emitting a
    /// Swap-Store or reclaiming a dead value if needed. Returns the cycle at
    /// which the freed register becomes writable.
    fn free_one_preg(
        &mut self,
        protected: &[RenamedReg],
        preissue_time: u64,
        mem: &mut MemoryHierarchy,
    ) -> u64 {
        // A dead value (RAC == 0) is reclaimed with no memory traffic at all
        // (aggressive register reclamation); otherwise the least-referenced
        // value is swapped out. Both prefer the value whose consumers have
        // drained, so the recycled register (or the Swap-Store) stalls the
        // pipeline as little as possible.
        let decision = plan_free_register(
            &self.mapping,
            &self.rac,
            protected,
            &self.value_ready,
            &self.preg_readers_done,
        );
        let victim = match decision {
            Some(SwapDecision::AlreadyFree) => return preissue_time,
            Some(SwapDecision::Reclaim(victim)) => {
                let preg = self
                    .mapping
                    .physical_of(victim)
                    .expect("reclaim victim is resident");
                self.mapping.release(victim);
                self.stats.aggressive_reclaims += 1;
                self.preg_writable[preg] =
                    self.preg_writable[preg].max(self.preg_readers_done[preg]);
                return self.preg_writable[preg];
            }
            Some(SwapDecision::SwapStore(victim)) => victim,
            None => panic!(
                "swap deadlock: every resident VVR is a source of the current instruction \
                 (physical registers: {}, protected: {})",
                self.mapping.num_physical(),
                protected.len()
            ),
        };

        let preg = self
            .mapping
            .physical_of(victim)
            .expect("swap victim is resident");
        let mvrf = self.mvrf.expect("AVA configurations have an M-VRF");
        let completion = if self.mvrf_clean[victim as usize] {
            // The M-VRF already holds an up-to-date copy (each VVR is written
            // exactly once), so this eviction needs no Swap-Store.
            self.preg_readers_done[preg].max(preissue_time)
        } else {
            // Swap-Store: P-VRF -> M-VRF; the slot now holds the physical
            // register's value.
            let slot = mvrf.slot_addr(victim);
            self.mvrf_tag[victim as usize] = self.preg_tag[preg];
            let timing = mem.vector_access(slot, (self.config.mvl * 8) as u64, true);
            // The Swap-Store reads the victim's value; it cannot start
            // before the value exists.
            let ready = preissue_time.max(self.value_ready[victim as usize]);
            let (_, _, completion) = self.schedule_memory(preissue_time, ready, &timing);
            self.stats.swap_stores += 1;
            self.stats.vrf_read_elems += self.config.mvl as u64;
            self.mvrf_clean[victim as usize] = true;
            completion
        };
        self.mapping.move_to_memory(victim);
        // Rule 1 (§III.C): the new owner may write the physical register
        // only once the Swap-Store has executed (or, for a clean victim,
        // once its consumers have read it).
        self.preg_writable[preg] = completion.max(self.preg_readers_done[preg]);
        completion
    }

    /// Releases a renamed register (old destination) at commit time.
    fn release_renamed(&mut self, reg: RenamedReg, commit: u64) {
        self.rename.release(reg);
        self.renamed_free_at[reg as usize] = commit;
        if self.config.mode == RenameMode::Ava {
            // The VVR id will be reused; clear its counter and invalidate
            // its M-VRF copy.
            self.rac.clear(reg);
            self.mvrf_clean[reg as usize] = false;
            if let Some(preg) = self.mapping.physical_of(reg) {
                self.preg_writable[preg] = commit.max(self.preg_readers_done[preg]);
            }
            self.mapping.release(reg);
        } else {
            let preg = reg as usize;
            self.preg_writable[preg] = commit.max(self.preg_readers_done[preg]);
        }
    }

    // ------------------------------------------------------------------
    // Timing helpers
    // ------------------------------------------------------------------

    /// Schedules an arithmetic instruction. Returns
    /// `(issue_start, chain_ready, completion)`: `chain_ready` is when the
    /// first result elements exist (dependents may chain on it), while
    /// `completion` is when the last element retires.
    fn schedule_arith(
        &mut self,
        opcode: Opcode,
        enter: u64,
        ready: u64,
        vl: usize,
    ) -> (u64, u64, u64) {
        let class = opcode.exec_class();
        let enter = self.arith_q.admit_time(enter);
        // A full queue back-pressures the in-order front end: nothing
        // younger can be renamed/pre-issued until this instruction has a
        // queue slot.
        self.frontend_free = self.frontend_free.max(enter);
        let start = self
            .arith_q
            .in_order_issue_time(ready.max(enter).max(self.arith_unit_free));
        let groups = vl.div_ceil(self.config.lanes) as u64;
        let occupancy = (groups * class.recurrence()).max(1);
        let chain_ready = start + class.startup_latency() + 1;
        let completion = start + class.startup_latency() + occupancy;
        self.arith_unit_free = start + occupancy;
        self.arith_q.record(enter, start);
        self.stats.arith_busy_cycles += occupancy;
        self.stats.queue_stall_cycles += enter.saturating_sub(ready.min(enter));
        (start, chain_ready, completion)
    }

    /// Schedules a memory instruction. Returns
    /// `(issue_start, chain_ready, completion)`; `chain_ready` is when the
    /// first data beat returns from the L2/DRAM so dependents can chain.
    fn schedule_memory(
        &mut self,
        enter: u64,
        ready: u64,
        timing: &AccessTiming,
    ) -> (u64, u64, u64) {
        let enter = self.mem_q.admit_time(enter);
        // Queue-full back-pressure reaches the front end (paper §III.C: the
        // pre-issue stage stalls until its queue has a free slot).
        self.frontend_free = self.frontend_free.max(enter);
        let start = self
            .mem_q
            .in_order_issue_time(ready.max(enter).max(self.mem_unit_free));
        let occupancy = self.config.mem_op_overhead + timing.occupancy_cycles.max(1);
        let latency_to_first = timing
            .total_cycles
            .saturating_sub(timing.occupancy_cycles)
            .max(1);
        let chain_ready = start + self.config.mem_op_overhead + latency_to_first + 1;
        let completion = start + self.config.mem_op_overhead + timing.total_cycles.max(1);
        self.mem_unit_free = start + occupancy;
        self.mem_q.record(enter, start);
        self.stats.mem_busy_cycles += occupancy;
        (start, chain_ready, completion)
    }

    fn memory_timing(
        &mut self,
        instr: &VecInstr,
        vl: usize,
        mem: &mut MemoryHierarchy,
        indexed_addrs: &mut &[u64],
    ) -> AccessTiming {
        let access = instr
            .mem
            .expect("memory instruction carries an address descriptor");
        let is_write = instr.opcode.is_store();
        match instr.opcode {
            Opcode::VLoad | Opcode::VStore => {
                mem.vector_access(access.base, (vl * 8) as u64, is_write)
            }
            Opcode::VLoadStrided | Opcode::VStoreStrided => {
                self.addr_buf.clear();
                self.addr_buf
                    .extend((0..vl).map(|i| element_addr(&access, i)));
                mem.vector_access_elements(&self.addr_buf, is_write)
            }
            Opcode::VLoadIndexed | Opcode::VStoreIndexed => {
                assert!(
                    indexed_addrs.len() >= vl,
                    "`{instr}`: the functional pass recorded no addresses for it"
                );
                let (addrs, rest) = indexed_addrs.split_at(vl);
                *indexed_addrs = rest;
                mem.vector_access_elements(addrs, is_write)
            }
            _ => unreachable!("not a memory opcode"),
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    fn count_instruction(&mut self, instr: &VecInstr, vl: usize, src_pregs: &[usize]) {
        self.stats.vrf_read_elems += (src_pregs.len() * vl) as u64;
        match instr.kind() {
            InstrKind::Arithmetic => {
                self.stats.arith_instrs += 1;
                let class = instr.opcode.exec_class();
                if class.is_fp() {
                    self.stats.fpu_ops += vl as u64;
                } else {
                    self.stats.int_ops += vl as u64;
                }
            }
            InstrKind::Memory => match (instr.opcode.is_load(), instr.role) {
                (true, InstrRole::SpillLoad) => self.stats.spill_loads += 1,
                (false, InstrRole::SpillStore) => self.stats.spill_stores += 1,
                (true, _) => self.stats.vloads += 1,
                (false, _) => self.stats.vstores += 1,
            },
            InstrKind::Config => self.stats.config_instrs += 1,
        }
    }
}

fn subtract_stats(stats: &mut VpuStats, baseline: &VpuStats) {
    stats.arith_instrs -= baseline.arith_instrs;
    stats.vloads -= baseline.vloads;
    stats.vstores -= baseline.vstores;
    stats.spill_loads -= baseline.spill_loads;
    stats.spill_stores -= baseline.spill_stores;
    stats.swap_loads -= baseline.swap_loads;
    stats.swap_stores -= baseline.swap_stores;
    stats.config_instrs -= baseline.config_instrs;
    stats.aggressive_reclaims -= baseline.aggressive_reclaims;
    stats.rename_stall_cycles -= baseline.rename_stall_cycles;
    stats.queue_stall_cycles -= baseline.queue_stall_cycles;
    stats.vrf_read_elems -= baseline.vrf_read_elems;
    stats.vrf_write_elems -= baseline.vrf_write_elems;
    stats.fpu_ops -= baseline.fpu_ops;
    stats.int_ops -= baseline.int_ops;
    stats.arith_busy_cycles -= baseline.arith_busy_cycles;
    stats.mem_busy_cycles -= baseline.mem_busy_cycles;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_isa::{Operand, Program};

    /// Builds `a[i] = a[i] * 2 + b[i]` over `n` elements as a stripmined
    /// program for the given MVL, using two logical registers.
    fn axpy_like(mem: &mut MemoryHierarchy, n: usize, mvl: usize) -> (Program, u64, u64) {
        let a = mem.allocate((n * 8) as u64);
        let b = mem.allocate((n * 8) as u64);
        for i in 0..n {
            mem.write_f64(a + 8 * i as u64, i as f64);
            mem.write_f64(b + 8 * i as u64, 100.0 + i as f64);
        }
        let mut p = Program::new("axpy-like");
        let mut done = 0usize;
        while done < n {
            let vl = mvl.min(n - done);
            p.push(VecInstr::setvl(vl));
            let off = (8 * done) as u64;
            p.push(VecInstr::vload(VReg::new(1), a + off));
            p.push(VecInstr::vload(VReg::new(2), b + off));
            p.push(VecInstr::vfmacc(VReg::new(2), 2.0, VReg::new(1)));
            p.push(VecInstr::vstore(VReg::new(2), a + off));
            done += vl;
        }
        (p, a, b)
    }

    fn check_axpy(mem: &MemoryHierarchy, a: u64, n: usize) {
        for i in 0..n {
            let expect = 2.0 * i as f64 + (100.0 + i as f64);
            assert_eq!(mem.read_f64(a + 8 * i as u64), expect, "element {i}");
        }
    }

    #[test]
    fn native_runs_functionally_correct() {
        let mut mem = MemoryHierarchy::default();
        let (p, a, _) = axpy_like(&mut mem, 64, 16);
        let mut vpu = Vpu::new(VpuConfig::native_x(1), &mut mem);
        let r = vpu.run(&p, &mut mem);
        check_axpy(&mem, a, 64);
        assert!(r.cycles > 0);
        assert_eq!(r.stats.vloads, 8);
        assert_eq!(r.stats.vstores, 4);
        assert_eq!(r.stats.arith_instrs, 4);
        assert_eq!(r.stats.swap_ops(), 0);
    }

    #[test]
    fn segmented_runs_partition_a_single_run_exactly() {
        let mut mem1 = MemoryHierarchy::default();
        let (p, a, _) = axpy_like(&mut mem1, 256, 16);
        let mut mem2 = mem1.clone();
        let mut whole = Vpu::new(VpuConfig::ava_x(1), &mut mem1);
        let total = whole.run(&p, &mut mem1);

        let mut seg = Vpu::new(VpuConfig::ava_x(1), &mut mem2);
        let mid = p.len() / 2;
        let first = seg.run_range(&p, 0..mid, &mut mem2);
        let second = seg.run_range(&p, mid..p.len(), &mut mem2);
        check_axpy(&mem2, a, 256);
        assert_eq!(total.cycles, first.cycles + second.cycles);
        assert_eq!(total.stats.vloads, first.stats.vloads + second.stats.vloads);
        assert_eq!(
            total.stats.arith_busy_cycles,
            first.stats.arith_busy_cycles + second.stats.arith_busy_cycles
        );
    }

    #[test]
    fn ava_x1_matches_native_behaviour() {
        let mut mem = MemoryHierarchy::default();
        let (p, a, _) = axpy_like(&mut mem, 64, 16);
        let mut vpu = Vpu::new(VpuConfig::ava_x(1), &mut mem);
        let r = vpu.run(&p, &mut mem);
        check_axpy(&mem, a, 64);
        assert_eq!(
            r.stats.swap_ops(),
            0,
            "64 physical registers never overflow"
        );
    }

    #[test]
    fn longer_vectors_reduce_cycles_for_high_dlp() {
        let n = 2048;
        let mut cycles = Vec::new();
        for x in [1usize, 4, 8] {
            let mut mem = MemoryHierarchy::default();
            let (p, a, _) = axpy_like(&mut mem, n, 16 * x);
            let mut vpu = Vpu::new(VpuConfig::native_x(x), &mut mem);
            let r = vpu.run(&p, &mut mem);
            check_axpy(&mem, a, n);
            cycles.push(r.cycles);
        }
        assert!(cycles[1] < cycles[0], "X4 faster than X1: {cycles:?}");
        assert!(
            cycles[2] <= cycles[1],
            "X8 at least as fast as X4: {cycles:?}"
        );
        let speedup = cycles[0] as f64 / cycles[2] as f64;
        assert!(
            speedup > 1.5 && speedup < 3.5,
            "X8 speedup {speedup} outside the plausible range"
        );
    }

    #[test]
    fn ava_x8_is_functionally_correct_with_tiny_register_file() {
        // MVL=128 leaves only 8 physical registers for 12 live values: the
        // Swap Mechanism must spill/refill VVRs, yet the result must match
        // the scalar sum.
        let (regs, vl) = (12usize, 128usize);
        let mut mem = MemoryHierarchy::default();
        let (p, out) = pressure(&mut mem, regs);
        let mut vpu = Vpu::new(VpuConfig::ava_x(8), &mut mem);
        let r = vpu.run(&p, &mut mem);
        assert!(
            r.stats.swap_ops() > 0,
            "8 physical registers cannot hold 12 live values without swaps"
        );
        assert_eq!(vpu.tag_error(), None);
        for i in 0..vl {
            let expected: f64 = (0..regs)
                .map(|reg| ((reg * vl + i) % 97) as f64 + 0.5)
                .sum();
            assert_eq!(mem.read_f64(out + 8 * i as u64), expected, "element {i}");
        }
    }

    /// `regs` blocks of 128 elements loaded into `regs` logical registers,
    /// summed into v1 and stored: on AVA X8 (8 physical registers) the
    /// loads swap VVRs out and the sums swap them back in.
    fn pressure(mem: &mut MemoryHierarchy, regs: usize) -> (Program, u64) {
        let vl = 128usize;
        let input = mem.allocate((regs * vl * 8) as u64);
        let out = mem.allocate((vl * 8) as u64);
        for i in 0..regs * vl {
            mem.write_f64(input + 8 * i as u64, (i % 97) as f64 + 0.5);
        }
        let mut p = Program::new("pressure");
        p.push(VecInstr::setvl(vl));
        for r in 0..regs {
            p.push(VecInstr::vload(
                VReg::new(1 + r as u8),
                input + (8 * r * vl) as u64,
            ));
        }
        for r in 1..regs {
            p.push(VecInstr::binary(
                Opcode::VFAdd,
                VReg::new(1),
                VReg::new(1),
                VReg::new(1 + r as u8),
            ));
        }
        p.push(VecInstr::vstore(VReg::new(1), out));
        (p, out)
    }

    #[test]
    fn swapped_mvrf_slot_tags_fail_the_tag_check() {
        let regs = 12;
        let mut mem = MemoryHierarchy::default();
        let (p, _) = pressure(&mut mem, regs);
        let mut clean_mem = mem.clone();
        let mut clean = Vpu::new(VpuConfig::ava_x(8), &mut clean_mem);
        let r = clean.run(&p, &mut clean_mem);
        assert!(r.stats.swap_ops() > 0);
        assert_eq!(clean.tag_error(), None, "a correct swap path reads clean");

        // After the loads, some VVRs live only in their M-VRF slots. Swap
        // the tags of two of them, as a Swap-Store into the wrong slot
        // would: reading them back must name the mismatch, not panic.
        let mut vpu = Vpu::new(VpuConfig::ava_x(8), &mut mem);
        let loads = 1 + regs;
        let _ = vpu.run_range(&p, 0..loads, &mut mem);
        assert_eq!(vpu.tag_error(), None);
        let swapped: Vec<usize> = (0..vpu.mvrf_tag.len())
            .filter(|&v| vpu.mapping.location(v as RenamedReg) == Location::Memory)
            .collect();
        assert!(
            swapped.len() >= 2,
            "the loads swapped VVRs out: {swapped:?}"
        );
        let (a, b) = (swapped[0], swapped[1]);
        assert_ne!(vpu.mvrf_tag[a], vpu.mvrf_tag[b]);
        vpu.mvrf_tag.swap(a, b);
        let _ = vpu.run_range(&p, loads..p.len(), &mut mem);
        let error = vpu.tag_error().expect("the mixed-up slots are read back");
        assert!(
            error.contains("VVR") && error.contains("physical register"),
            "{error}"
        );
    }

    #[test]
    fn write_back_and_read_counts_cover_reductions_and_short_strips() {
        // NATIVE X1: MVL 16 over 8 lanes. A final strip of 5 elements
        // (fewer than the lanes) loads, reduces and stores; then a
        // zero-length reduction still writes its one result element.
        let mut mem = MemoryHierarchy::default();
        let buf = mem.allocate(16 * 8);
        let mut p = Program::new("short");
        p.push(VecInstr::setvl(5));
        p.push(VecInstr::vload(VReg::new(1), buf));
        p.push(VecInstr::vfredsum(VReg::new(2), VReg::new(1)));
        p.push(VecInstr::vstore(VReg::new(2), buf));
        let mut vpu = Vpu::new(VpuConfig::native_x(1), &mut mem);
        let strip = vpu.run(&p, &mut mem);
        // Writes: the load's 5 and the reduction's 5. Reads: the
        // reduction's 5 and the store's 5.
        assert_eq!(strip.stats.vrf_write_elems, 10);
        assert_eq!(strip.stats.vrf_read_elems, 10);

        let mut q = Program::new("empty");
        q.push(VecInstr::setvl(0));
        q.push(VecInstr::vfredsum(VReg::new(3), VReg::new(1)));
        let empty = vpu.run(&q, &mut mem);
        assert_eq!(empty.stats.vrf_write_elems, 1, "max(vl, 1) elements");
        assert_eq!(empty.stats.vrf_read_elems, 0);
        assert_eq!(vpu.tag_error(), None);
    }

    #[test]
    fn spill_code_is_counted_separately() {
        let mut mem = MemoryHierarchy::default();
        let buf = mem.allocate(16 * 8);
        let mut p = Program::new("spilly");
        p.push(VecInstr::setvl(16));
        p.push(VecInstr::vload(VReg::new(1), buf));
        p.push(
            VecInstr::vstore(VReg::new(1), buf + 4096)
                .with_full_mvl()
                .with_role(InstrRole::SpillStore),
        );
        p.push(
            VecInstr::vload(VReg::new(2), buf + 4096)
                .with_full_mvl()
                .with_role(InstrRole::SpillLoad),
        );
        p.push(VecInstr::vstore(VReg::new(2), buf));
        let mut vpu = Vpu::new(VpuConfig::native_x(1), &mut mem);
        let r = vpu.run(&p, &mut mem);
        assert_eq!(r.stats.spill_stores, 1);
        assert_eq!(r.stats.spill_loads, 1);
        assert_eq!(r.stats.vloads, 1);
        assert_eq!(r.stats.vstores, 1);
    }

    #[test]
    fn setvl_clamps_to_the_hardware_mvl() {
        let mut mem = MemoryHierarchy::default();
        let buf = mem.allocate(256 * 8);
        for i in 0..256u64 {
            mem.write_f64(buf + 8 * i, 1.0);
        }
        let mut p = Program::new("clamp");
        p.push(VecInstr::setvl(1000));
        p.push(VecInstr::vload(VReg::new(1), buf));
        p.push(VecInstr::vstore(VReg::new(1), buf + 8 * 256));
        let mut vpu = Vpu::new(VpuConfig::native_x(2), &mut mem); // MVL=32
        let _ = vpu.run(&p, &mut mem);
        // Exactly 32 elements were copied.
        assert_eq!(mem.read_f64(buf + 8 * (256 + 31)), 1.0);
        assert_eq!(mem.read_f64(buf + 8 * (256 + 32)), 0.0);
    }

    #[test]
    fn gather_and_scatter_work_through_the_vpu() {
        let mut mem = MemoryHierarchy::default();
        let src = mem.allocate(64 * 8);
        let dst = mem.allocate(64 * 8);
        for i in 0..64u64 {
            mem.write_f64(src + 8 * i, i as f64);
        }
        // Reverse-copy 16 elements using an index vector.
        let mut p = Program::new("reverse");
        p.push(VecInstr::setvl(16));
        p.push(VecInstr::vid(VReg::new(3)));
        p.push(VecInstr::binary(
            Opcode::VSub,
            VReg::new(4),
            Operand::scalar_i64(15),
            VReg::new(3),
        ));
        p.push(VecInstr::vload_indexed(VReg::new(5), src, VReg::new(4)));
        p.push(VecInstr::vstore(VReg::new(5), dst));
        let mut vpu = Vpu::new(VpuConfig::ava_x(1), &mut mem);
        let _ = vpu.run(&p, &mut mem);
        for i in 0..16u64 {
            assert_eq!(mem.read_f64(dst + 8 * i), (15 - i) as f64);
        }
    }

    #[test]
    fn stride_zero_broadcasts_one_element_and_touches_one_line() {
        let mut mem = MemoryHierarchy::default();
        let src = mem.allocate(64 * 8);
        let dst = mem.allocate(16 * 8);
        for i in 0..64u64 {
            mem.write_f64(src + 8 * i, i as f64 + 1.0);
        }
        let mut p = Program::new("broadcast");
        p.push(VecInstr::setvl(16));
        p.push(VecInstr::vload_strided(VReg::new(1), src + 8 * 3, 0));
        p.push(VecInstr::vstore(VReg::new(1), dst));
        let mut vpu = Vpu::new(VpuConfig::native_x(1), &mut mem);
        let before = mem.stats();
        let _ = vpu.run_range(&p, 0..2, &mut mem);
        let load = mem.stats().delta_since(&before);
        assert_eq!(load.vector_requests, 1);
        assert_eq!(load.l2.accesses(), 1, "every element is in one line");
        let _ = vpu.run_range(&p, 2..3, &mut mem);
        for i in 0..16u64 {
            assert_eq!(mem.read_f64(dst + 8 * i), 4.0, "element {i} is mem[base]");
        }
    }

    #[test]
    fn rename_stalls_accumulate_for_tiny_register_pools() {
        // RG-LMUL8 has 8 physical registers; a long dependent chain through
        // one logical register forces the front end to wait for commits.
        let mut mem = MemoryHierarchy::default();
        let buf = mem.allocate(128 * 8);
        let mut p = Program::new("chain");
        p.push(VecInstr::setvl(128));
        p.push(VecInstr::vload(VReg::new(0), buf));
        for _ in 0..64 {
            p.push(VecInstr::binary(
                Opcode::VFAdd,
                VReg::new(0),
                VReg::new(0),
                VReg::new(0),
            ));
        }
        let mut vpu = Vpu::new(VpuConfig::rg_lmul(ava_isa::Lmul::M8), &mut mem);
        let rg = vpu.run(&p, &mut mem);

        let mut mem2 = MemoryHierarchy::default();
        let _ = mem2.allocate(128 * 8);
        let mut vpu8 = Vpu::new(VpuConfig::ava_x(8), &mut mem2);
        let ava = vpu8.run(&p, &mut mem2);
        assert!(
            rg.stats.rename_stall_cycles >= ava.stats.rename_stall_cycles,
            "RG (8 renamed regs) should stall at least as much as AVA (64 VVRs)"
        );
    }
}
