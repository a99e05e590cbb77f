//! A simple core model: 4-wide issue/retire, 128-entry instruction window, in-order
//! retirement past outstanding LLC misses (Table 4).

use std::collections::VecDeque;
use std::sync::Arc;

use svard_memsim::{MemoryRequest, MemorySystem, RequestKind};
use svard_obs::ObsSink;

use crate::cache::LlcStats;
use crate::stream::{CoreStream, StreamAccess, StreamWalk};
use crate::workload::WorkloadSpec;

/// Static core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions issued/retired per cycle.
    pub width: u32,
    /// Instruction-window (ROB) capacity.
    pub window: u64,
    /// Maximum outstanding LLC misses.
    pub max_outstanding_misses: usize,
}

impl CoreConfig {
    /// The paper's Table 4 core: 4-wide, 128-entry instruction window.
    pub fn table4() -> Self {
        Self {
            width: 4,
            window: 128,
            max_outstanding_misses: 16,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::table4()
    }
}

/// An incomplete LLC miss that blocks retirement: the instruction's sequence
/// number and its memory request.
#[derive(Debug, Clone, Copy)]
struct OutstandingMiss {
    seq: u64,
    request_id: u64,
}

/// Where a core reads its accesses from.
#[derive(Debug)]
enum Accesses {
    /// A stream generated ahead of the run, read at `cursor`.
    Shared {
        stream: Arc<CoreStream>,
        cursor: usize,
    },
    /// The core's own walk, one access at a time.
    Live(Box<StreamWalk>),
}

/// One simulated core executing a synthetic trace against a shared memory system.
///
/// The core reads its trace as LLC-filtered accesses: each with the gap
/// before it and the LLC's verdict, either from a [`CoreStream`] computed
/// ahead of the run ([`from_stream`](Self::from_stream)) or from its own
/// walk of the trace through a fresh LLC, one access at a time
/// ([`new`](Self::new)). Both give the same accesses, so both give the same
/// run. Reading the verdicts in order is exact because the core reaches its
/// accesses in trace order and touches the LLC at nothing else, with one
/// exception, the retry rule:
///
/// - A cached core's miss that finds every MSHR busy has already installed
///   its line (the LLC is consulted before the MSHR check), so the core
///   sets `installed` and stalls for the cycle. Its retry reaches the same
///   access, issues it as a hit and counts an LLC hit; the miss never
///   reaches DRAM and its dirty victim's writeback is lost. The retry
///   leaves the cache as it was (the line is already the most recent and
///   already dirty if the access writes), so later verdicts still hold.
/// - A core that bypasses the LLC (an adversarial spec) stalls on full
///   MSHRs and retries the access as a miss.
///
/// ROADMAP item 1 wants the blocked miss to reach DRAM: dropping `installed`
/// makes the retry a miss.
#[derive(Debug)]
pub struct SimpleCore {
    /// Core index (used to tag memory requests).
    pub id: usize,
    config: CoreConfig,
    /// Adversarial access patterns model an attacker that bypasses the cache
    /// (e.g. via `clflush`), so every access reaches DRAM.
    bypass_llc: bool,
    source: Accesses,
    /// The next access to perform (`None` only past the end of a stream,
    /// which covers the budget, so never while the core runs).
    access: Option<StreamAccess>,
    /// The next access missed on full MSHRs and installed its line, so it
    /// issues as a hit (see the retry rule above).
    installed: bool,
    llc: LlcStats,
    issued: u64,
    retired: u64,
    instruction_limit: u64,
    non_mem_remaining: u32,
    pending_request: Option<MemoryRequest>,
    pending_is_demand: bool,
    /// Incomplete demand misses in issue (`seq`) order: the front is the
    /// oldest, which bounds retirement, and the length is the MSHR count.
    outstanding: VecDeque<OutstandingMiss>,
    next_request_id: u64,
    cycles: u64,
    finish_cycle: Option<u64>,
    /// Whether the last tick ended stalled (see [`stalled`](Self::stalled)).
    stalled: bool,
}

impl SimpleCore {
    /// Create a core running `spec` for `instruction_limit` instructions,
    /// walking its own trace through its own LLC as it runs (so its memory
    /// does not grow with the budget).
    pub fn new(
        id: usize,
        spec: &WorkloadSpec,
        config: CoreConfig,
        instruction_limit: u64,
        seed: u64,
    ) -> Self {
        let mut walk = Box::new(StreamWalk::new(spec, id, seed));
        let first = walk.next_access();
        let bypass_llc = walk.bypasses_llc();
        Self::with_source(
            id,
            config,
            instruction_limit,
            bypass_llc,
            Accesses::Live(walk),
            Some(first),
        )
    }

    /// Create a core reading a shared `stream`: its core index and
    /// instruction budget are the stream's.
    pub fn from_stream(stream: Arc<CoreStream>, config: CoreConfig) -> Self {
        let (id, limit, bypass_llc) = (stream.core(), stream.instructions(), stream.bypasses_llc());
        let first = stream.access(0);
        let source = Accesses::Shared { stream, cursor: 0 };
        Self::with_source(id, config, limit, bypass_llc, source, first)
    }

    fn with_source(
        id: usize,
        config: CoreConfig,
        instruction_limit: u64,
        bypass_llc: bool,
        source: Accesses,
        access: Option<StreamAccess>,
    ) -> Self {
        Self {
            id,
            config,
            bypass_llc,
            non_mem_remaining: access.map_or(0, StreamAccess::gap),
            instruction_limit,
            source,
            access,
            installed: false,
            llc: LlcStats::default(),
            issued: 0,
            retired: 0,
            pending_request: None,
            pending_is_demand: false,
            outstanding: VecDeque::new(),
            next_request_id: (id as u64) << 48,
            cycles: 0,
            finish_cycle: None,
            stalled: false,
        }
    }

    /// True once the core has issued (and retired) its instruction budget.
    pub fn finished(&self) -> bool {
        self.retired >= self.instruction_limit
    }

    /// Instructions retired so far.
    pub fn retired_instructions(&self) -> u64 {
        self.retired
    }

    /// Cycles this core has been ticked.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Retired instructions per cycle, measured at the cycle the core finished (or
    /// now, if it has not finished yet).
    pub fn ipc(&self) -> f64 {
        let cycles = self.finish_cycle.unwrap_or(self.cycles).max(1);
        self.retired as f64 / cycles as f64
    }

    /// The core's LLC hits and misses so far; a retry that hits after a
    /// miss on full MSHRs counts both. Zero for a core that bypasses the LLC.
    pub fn llc(&self) -> LlcStats {
        self.llc
    }

    /// Notify the core that one of its memory requests completed.
    pub fn on_completion(&mut self, request_id: u64) {
        if let Some(pos) = self
            .outstanding
            .iter()
            .position(|m| m.request_id == request_id)
        {
            self.outstanding.remove(pos);
        }
    }

    /// Advance the core by one cycle, issuing LLC misses into `memory`.
    ///
    /// Returns whether the tick made any progress: retired or issued an
    /// instruction, enqueued a request, or mutated cache state while trying.
    ///
    /// A `false` return means this tick was a pure stall: it only counted the
    /// cycle. A tick that progressed can still end [`stalled`](Self::stalled):
    /// its issue loop stopped on a condition only memory can clear, and nothing
    /// is left to retire. After a `false` tick or a stalled one, every later
    /// tick is a pure stall until one of two events: one of the core's own
    /// requests completes ([`on_completion`](Self::on_completion)), or the
    /// controller frees a slot in the queue of the core's rejected request
    /// ([`rejected_kind`](Self::rejected_kind)). A core holding a rejected
    /// request always has window room and budget left, so its next tick
    /// enqueues that request if the queue still has a free slot.
    ///
    /// The system runner relies on this contract: it parks a core after a
    /// `false` or stalled tick, wakes it only on those events, and credits
    /// the ticks it skipped with [`skip_stalled_cycles`](Self::skip_stalled_cycles).
    pub fn tick<S: ObsSink>(&mut self, memory: &mut MemorySystem<S>) -> bool {
        self.stalled = false;
        if self.finished() {
            return false;
        }
        self.cycles += 1;
        let mut progressed = false;

        // --- Retire: in order, up to `width`, never past an incomplete miss. -----
        let retire_to = (self.retired + self.config.width as u64).min(self.retirable());
        if retire_to > self.retired {
            self.retired = retire_to;
            progressed = true;
            if self.finished() {
                self.finish_cycle = Some(self.cycles);
                return true;
            }
        }

        // lint: hot-path
        // --- Issue: up to `width` instructions, window and MSHR permitting. ------
        // The loop yields whether it stopped on a condition that only a memory
        // event can clear (a stall), rather than on running out of slots.
        let mut slots = self.config.width as u64;
        let blocked = loop {
            if slots == 0 {
                break false;
            }
            if self.issued >= self.instruction_limit {
                break true; // budget issued
            }
            if self.issued - self.retired >= self.config.window {
                break true; // instruction window full
            }
            // Retry a request the memory controller previously rejected, once
            // its queue has room (checked first so a still-full queue costs no
            // request moves).
            if self
                .pending_request
                .as_ref()
                .is_some_and(|req| memory.free_slots(req.kind) == 0)
            {
                break true;
            }
            if let Some(req) = self.pending_request.take() {
                let req_id = req.id;
                match memory.enqueue(req) {
                    Ok(()) => {
                        if self.pending_is_demand {
                            self.outstanding.push_back(OutstandingMiss {
                                seq: self.issued + 1,
                                request_id: req_id,
                            });
                        }
                        self.issued += 1;
                        slots -= 1;
                        progressed = true;
                        self.advance_trace();
                    }
                    Err(req) => {
                        self.pending_request = Some(req);
                        break true;
                    }
                }
                continue;
            }
            if self.non_mem_remaining > 0 {
                // Issue the whole run of non-memory instructions that fits in the
                // remaining slots, window and budget in one step (equivalent to,
                // but cheaper than, one loop iteration per instruction).
                let n = u64::from(self.non_mem_remaining)
                    .min(slots)
                    .min(self.instruction_limit - self.issued)
                    .min(self.config.window - (self.issued - self.retired));
                self.non_mem_remaining -= n as u32;
                self.issued += n;
                slots -= n;
                progressed = true;
                continue;
            }
            // The next instruction is the next access.
            let Some(access) = self.access else {
                self.issued += 1;
                slots -= 1;
                progressed = true;
                continue;
            };
            let writeback = if self.bypass_llc {
                None
            } else {
                // Reaching the LLC updates its recency/dirty state (and installs
                // the line on a miss), so it counts as progress even if the
                // instruction ends up blocked on a full MSHR list or queue.
                progressed = true;
                if access.is_hit() || self.installed {
                    self.llc.hits += 1;
                    self.installed = false;
                    self.issued += 1;
                    slots -= 1;
                    self.advance_trace();
                    continue;
                }
                self.llc.misses += 1;
                access.writeback()
            };
            if self.outstanding.len() >= self.config.max_outstanding_misses {
                // MSHRs full; retry next cycle. A cached core's retry hits the
                // line this access just installed, so only a bypassing core is
                // stalled here.
                self.installed = !self.bypass_llc;
                break self.bypass_llc;
            }
            // Past the MSHR check the tick always mutates state (request
            // ids, writeback enqueue, pending-request bookkeeping).
            progressed = true;
            // Issue the writeback first (not tracked for retirement).
            if let Some(wb_addr) = writeback {
                let wb = MemoryRequest::new(
                    self.alloc_request_id(),
                    RequestKind::Write,
                    wb_addr,
                    self.id,
                );
                if memory.enqueue(wb).is_err() {
                    // Drop the writeback on queue pressure; it does not gate
                    // core progress and the line is modelled as rewritten.
                }
            }
            let id = self.alloc_request_id();
            let is_write = access.is_write();
            let kind = if is_write {
                RequestKind::Write
            } else {
                RequestKind::Read
            };
            // Stores retire without waiting for DRAM; only loads block
            // retirement.
            let demand = !is_write;
            let req = MemoryRequest::new(id, kind, access.address(), self.id);
            match memory.enqueue(req) {
                Ok(()) => {
                    if demand {
                        self.outstanding.push_back(OutstandingMiss {
                            seq: self.issued + 1,
                            request_id: id,
                        });
                    }
                    self.issued += 1;
                    slots -= 1;
                    self.advance_trace();
                }
                Err(req) => {
                    self.pending_request = Some(req);
                    self.pending_is_demand = demand;
                    break true;
                }
            }
        };
        // lint: end-hot-path
        self.stalled = blocked && self.retirable() == self.retired;
        debug_assert!(!self.stalled || !self.can_make_progress(memory));
        progressed
    }

    /// Whether the last [`tick`](Self::tick) ended stalled: its issue loop
    /// stopped on the budget being issued, a full window, a rejected request
    /// meeting a full queue, a refused enqueue, or (for a core that bypasses
    /// the LLC) full MSHRs, and nothing is left to retire. The next tick is
    /// then a pure stall until a memory event named in `tick`'s contract, even
    /// if this one made progress, so the runner parks the core on this tick.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Whether a [`tick`](Self::tick) against the current memory-system state
    /// would make any observable progress (retire or issue at least one
    /// instruction, or mutate cache/memory state while trying).
    ///
    /// When this returns `false` the core is *stalled*: its next tick would only
    /// increment the cycle counter, and that stays true until the memory system
    /// reaches its next event (a completion, a scheduling opportunity that frees a
    /// queue slot, or a refresh). The blocked conditions below mirror the early
    /// exits of `tick` exactly.
    ///
    /// The system runner does not ask: `tick` records why its issue loop
    /// stopped, and the runner parks a core whose tick returned `false` or
    /// ended [`stalled`](Self::stalled). `tick` debug-asserts that a stalled
    /// core cannot make progress, so this predicate is the reference the flag
    /// is checked against. Its other caller is, through
    /// [`next_ready_cycle`](Self::next_ready_cycle), the benchmark's frozen
    /// split loop (`perfbench/src/layers.rs::run_split`); `next_ready_cycle`
    /// goes with that loop (ROADMAP item 13, one simulation loop).
    pub fn can_make_progress<S: ObsSink>(&self, memory: &MemorySystem<S>) -> bool {
        if self.finished() {
            return false;
        }
        // Cheap path first: can the first issue slot do anything? (Mirrors the
        // issue loop's break conditions.)
        if self.issued < self.instruction_limit && self.issued - self.retired < self.config.window {
            match &self.pending_request {
                Some(req) => {
                    // A previously rejected request is retried first; it makes
                    // progress iff the corresponding queue has room.
                    if memory.free_slots(req.kind) > 0 {
                        return true;
                    }
                }
                None => {
                    if self.non_mem_remaining > 0 || self.access.is_none() {
                        return true;
                    }
                    if !self.bypass_llc {
                        // A cached workload's next access consults (and mutates)
                        // the LLC, so the tick always makes progress in the sense
                        // that matters for equivalence.
                        return true;
                    }
                    // Adversarial cores miss on every access without touching the
                    // LLC, so a full MSHR list genuinely blocks them with no state
                    // change.
                    if self.outstanding.len() < self.config.max_outstanding_misses {
                        return true;
                    }
                }
            }
        }
        // Issue is blocked; can anything retire this cycle? (Mirrors the retire
        // section of `tick`.)
        self.retirable() > self.retired
    }

    /// The next cycle (strictly after `now`) at which this core will do work, or
    /// `None` if it is finished or stalled until the memory system's next event.
    /// Kept only for the benchmark's frozen split loop; see
    /// [`can_make_progress`](Self::can_make_progress).
    pub fn next_ready_cycle<S: ObsSink>(&self, now: u64, memory: &MemorySystem<S>) -> Option<u64> {
        if self.can_make_progress(memory) {
            Some(now + 1)
        } else {
            None
        }
    }

    /// Account for `n` skipped stall cycles (ticks that would each have
    /// returned `false`), keeping the cycle counter — and therefore IPC —
    /// identical to ticking through the stall. A finished core stays put.
    pub fn skip_stalled_cycles(&mut self, n: u64) {
        if !self.finished() {
            self.cycles += n;
        }
    }

    /// The kind of the request the memory controller rejected, if the core
    /// holds one; it is retried once that queue has room.
    pub fn rejected_kind(&self) -> Option<RequestKind> {
        self.pending_request.as_ref().map(|req| req.kind)
    }

    /// How far the core could retire with unlimited width: up to its issued
    /// instructions and its budget, and never past the oldest incomplete miss.
    fn retirable(&self) -> u64 {
        let retire_limit = self
            .outstanding
            .front()
            .map_or(self.issued, |m| m.seq.saturating_sub(1));
        retire_limit.min(self.issued).min(self.instruction_limit)
    }

    fn alloc_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    // lint: hot-path
    /// Move to the next access. A stream covers the budget plus the access
    /// stashed after the last one, and a live walk never ends, so this
    /// never runs out.
    fn advance_trace(&mut self) {
        self.access = match &mut self.source {
            Accesses::Shared { stream, cursor } => {
                *cursor += 1;
                stream.access(*cursor)
            }
            Accesses::Live(walk) => Some(walk.next_access()),
        };
        debug_assert!(self.access.is_some(), "stream ran out before the budget");
        self.non_mem_remaining = self.access.map_or(0, StreamAccess::gap);
    }
    // lint: end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use svard_memsim::MemoryConfig;

    fn run_core(spec: &WorkloadSpec, instructions: u64) -> (f64, u64) {
        let mut memory = MemorySystem::new(MemoryConfig::small(4096));
        let mut core = SimpleCore::new(0, spec, CoreConfig::table4(), instructions, 7);
        let mut cycles = 0u64;
        while !core.finished() && cycles < 5_000_000 {
            core.tick(&mut memory);
            for done in memory.tick() {
                core.on_completion(done.id);
            }
            cycles += 1;
        }
        assert!(core.finished(), "core did not finish in time");
        (core.ipc(), memory.stats().requests_completed())
    }

    #[test]
    fn compute_bound_workload_reaches_near_peak_ipc() {
        // A workload with tiny working set: everything hits in the LLC after warmup.
        let spec = WorkloadSpec {
            name: "tiny",
            class: crate::workload::WorkloadClass::MediaBench,
            mem_per_kilo_instr: 20,
            working_set_bytes: 64 << 10,
            sequential_fraction: 0.9,
            read_fraction: 0.7,
            zipf_exponent: 0.0,
        };
        let (ipc, _) = run_core(&spec, 50_000);
        assert!(ipc > 3.0, "ipc = {ipc}");
    }

    #[test]
    fn memory_bound_workload_is_limited_by_dram() {
        let spec = WorkloadSpec {
            name: "thrash",
            class: crate::workload::WorkloadClass::Ycsb,
            mem_per_kilo_instr: 100,
            working_set_bytes: 256 << 20,
            sequential_fraction: 0.05,
            read_fraction: 0.9,
            zipf_exponent: 0.0,
        };
        let (ipc, requests) = run_core(&spec, 50_000);
        assert!(ipc < 2.0, "ipc = {ipc}");
        assert!(requests > 1000, "requests = {requests}");
    }

    #[test]
    fn ipc_is_deterministic() {
        let spec = &WorkloadSpec::catalogue()[0];
        let (a, _) = run_core(spec, 20_000);
        let (b, _) = run_core(spec, 20_000);
        assert_eq!(a, b);
    }

    /// Run `core` to completion against its own small memory system: its
    /// IPC, LLC counts and completed requests.
    fn run_to_end(mut core: SimpleCore) -> (f64, LlcStats, u64) {
        let mut memory = MemorySystem::new(MemoryConfig::small(1024));
        while !core.finished() && memory.cycle() < 5_000_000 {
            core.tick(&mut memory);
            for done in memory.tick() {
                core.on_completion(done.id);
            }
        }
        assert!(core.finished(), "core did not finish in time");
        (core.ipc(), core.llc(), memory.stats().requests_completed())
    }

    #[test]
    fn live_and_streamed_cores_run_alike() {
        // One MSHR makes cached cores retry on full MSHRs and bypassing
        // cores stall on them, so the retry rule is exercised both ways.
        let mut specs = WorkloadSpec::catalogue();
        specs.truncate(4);
        specs.push(WorkloadSpec::adversarial_hydra());
        for mshrs in [1, 16] {
            let config = CoreConfig {
                max_outstanding_misses: mshrs,
                ..CoreConfig::table4()
            };
            for (id, spec) in specs.iter().enumerate() {
                let live = SimpleCore::new(id, spec, config, 30_000, 11);
                let stream = CoreStream::generate(spec, id, 11, 30_000);
                let shared = SimpleCore::from_stream(Arc::new(stream), config);
                assert_eq!(
                    run_to_end(live),
                    run_to_end(shared),
                    "{} with {mshrs} MSHRs",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn finished_core_stops_counting_cycles() {
        let spec = &WorkloadSpec::catalogue()[8];
        let mut memory = MemorySystem::new(MemoryConfig::small(1024));
        let mut core = SimpleCore::new(0, spec, CoreConfig::table4(), 5_000, 3);
        for _ in 0..2_000_000 {
            if core.finished() {
                break;
            }
            core.tick(&mut memory);
            for done in memory.tick() {
                core.on_completion(done.id);
            }
        }
        assert!(core.finished());
        let ipc_at_finish = core.ipc();
        // Extra ticks after finishing must not change the IPC.
        for _ in 0..100 {
            core.tick(&mut memory);
        }
        assert_eq!(core.ipc(), ipc_at_finish);
        assert_eq!(core.retired_instructions(), 5_000);
    }
}
