//! The memory controller: request queues, FR-FCFS scheduling, refresh, and
//! preventive-action execution.
//!
//! # One FR-FCFS scan, decided from per-bank tallies
//!
//! Each tick, `schedule_one` decides from the queue it examines (the write
//! queue while draining writes or when no read is pending, else the read
//! queue). A request is eligible once its `earliest_issue_cycle` has passed
//! and its row is not throttled; FR-FCFS issues the oldest eligible row hit
//! under the column cap, else the oldest eligible request.
//!
//! `earliest_issue_cycle` depends on a request only through its bank,
//! whether its row is the bank's open row, and the bank's rank; whether it
//! is a hit under the cap adds only the bank's `consecutive_hits`. So the
//! requests of one queue fall into two classes per bank, (bank, row open)
//! and (bank, row closed), and every request of a class is eligible, or a
//! hit, exactly when the class is. Each queue keeps per-bank tallies
//! (`QueueTally`: entries, entries to the open row, entries per row, and
//! bitsets of the banks with any), updated on enqueue and dequeue and
//! recounted whenever a bank's open row changes (an activation, a row
//! migration or a row swap). A decision first classifies banks, computing
//! each rank's activation bound once:
//!
//! * if some bank with open-row requests is under the column cap and ready,
//!   the pick is the first request in such a bank whose row is open;
//! * else, if some class of some bank is eligible, the pick is the first
//!   request of an eligible class;
//! * else nothing is eligible, and the minimum over the classes becomes the
//!   `no_schedule_before` bound without visiting the queue; later ticks skip
//!   deciding until then. [`MemorySystem::next_event_cycle`] takes the same
//!   per-bank minimum.
//!
//! When the bound is stale, [`MemorySystem::next_event_cycle`] computes that
//! minimum over the queue the next tick examines, which is exactly the bound
//! a fruitless decision at the next tick would store, so it stores it (a
//! memo in a `Cell`, so the method keeps `&self`). The same invalidations
//! apply to the memo as to a decision's bound: an enqueue lowers or resets
//! it, an issue or a refresh resets it.
//!
//! Both queues stay in arrival order, so the first request of an eligible
//! class is the one a per-entry scan would pick. Throttles are per row, not
//! per class: while any is active the walk visits every entry, counting one
//! throttle stall per throttled entry per cycle, and `next_event_cycle`
//! takes its per-entry minimum with each throttle's expiry. The bound is
//! read only while the throttle table is empty, so throttled entries never
//! make it unsound. The table keeps each bank's throttled rows in a short
//! list (`ThrottleTable`), so those per-entry lookups hash nothing.
//!
//! # Event-driven fast-forwarding
//!
//! [`MemorySystem::tick`] advances exactly one controller cycle and is the
//! per-cycle reference semantics. On top of it the controller exposes an
//! event-driven batch API:
//!
//! * [`MemorySystem::next_event_cycle`] computes the next cycle at which a tick
//!   could do anything beyond bookkeeping — the minimum over bank/rank ready
//!   cycles, throttle expiries, in-flight completions and the next periodic
//!   refresh, restricted to the queue FR-FCFS would actually examine;
//! * [`MemorySystem::tick_until`] advances to a target cycle, skipping runs of
//!   dead cycles in O(1) while keeping every statistic (including per-cycle
//!   counters such as `cycles` and `throttle_stalls`) *identical* to ticking
//!   cycle by cycle;
//! * [`MemorySystem::run_until_idle`] drains the queues using the same
//!   fast-forwarding.
//!
//! Dead-cycle skipping is sound because controller state is frozen between
//! events: scheduling eligibility depends only on bank/rank timing state,
//! throttle windows and queue contents, none of which change during a cycle in
//! which nothing is scheduled, nothing completes and no refresh fires.
//!
//! # In-flight requests complete in issue order
//!
//! An issued request completes at `max(column issue + CL/CWL, bus free) +
//! burst`, and the bus is then busy until that cycle, so completion cycles
//! never decrease in issue order. `in_flight` is therefore a FIFO: a tick
//! pops the requests due from its front, and its front is the next
//! completion event.

use std::cell::Cell;
use std::collections::VecDeque;

use svard_obs::{Counter, EventKind, Gauge, Hist, MetricsSnapshot, NoopSink, ObsSink};

use crate::actions::{MitigationHook, NoMitigation, PreventiveAction};
use crate::bank::{BankTiming, RankTiming};
use crate::config::MemoryConfig;
use crate::request::{CompletedRequest, MemoryRequest, RequestKind};
use crate::stats::MemStats;
use crate::tally::QueueTally;
use crate::throttle::ThrottleTable;

/// DDR timing parameters pre-converted to controller cycles, so the scheduler
/// hot path never repeats the picosecond-to-cycle divisions.
#[derive(Debug, Clone, Copy)]
struct TimingCycles {
    t_rcd: u64,
    t_rp: u64,
    t_ras: u64,
    t_cl: u64,
    t_cwl: u64,
    t_ccd_l: u64,
    t_rc: u64,
    t_rrd_l: u64,
    t_faw: u64,
    t_rfc: u64,
    t_refi: u64,
    burst: u64,
}

impl TimingCycles {
    fn of(config: &MemoryConfig) -> Self {
        let t = &config.timing;
        Self {
            t_rcd: t.t_rcd(),
            t_rp: t.t_rp(),
            t_ras: t.t_ras(),
            t_cl: t.t_cl(),
            t_cwl: t.t_cwl(),
            t_ccd_l: t.t_ccd_l(),
            t_rc: t.t_rc(),
            t_rrd_l: t.t_rrd_l(),
            t_faw: t.t_faw(),
            t_rfc: t.t_rfc(),
            t_refi: t.t_refi(),
            burst: t.burst_cycles,
        }
    }
}

/// Flags of one bank in [`MemorySystem::classify`]'s verdict: its queued
/// requests to the open row issue now as row hits under the column cap
/// (`READY_HIT`) or at all (`READY_OPEN`); its requests to other rows issue
/// now (`READY_CLOSED`).
const READY_HIT: u8 = 1;
const READY_OPEN: u8 = 2;
const READY_CLOSED: u8 = 4;

/// What [`MemorySystem::classify`] found.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    /// Some bank has a ready row hit.
    any_hit: bool,
    /// Some class of some bank can issue now.
    any_eligible: bool,
    /// Earliest issue cycle over the classes that cannot issue now; exact
    /// only when nothing is eligible.
    earliest: u64,
}

/// The simulated memory system: one controller driving one DDR4 channel.
///
/// The `S` parameter is the observability sink (see `svard-obs`): the
/// default [`NoopSink`] records nothing and compiles to nothing, so the
/// plain `MemorySystem` type is exactly as fast as before the sink existed.
/// Construct with [`MemorySystem::with_mitigation_and_sink`] to record
/// cycle-domain metrics and events.
pub struct MemorySystem<S: ObsSink = NoopSink> {
    config: MemoryConfig,
    t: TimingCycles,
    /// Cost (cycles) of one row migration: read-out plus write-back of a full row.
    migration_cost: u64,
    banks: Vec<BankTiming>,
    ranks: Vec<RankTiming>,
    bus_free_at: u64,
    read_queue: VecDeque<MemoryRequest>,
    write_queue: VecDeque<MemoryRequest>,
    /// Per-bank tallies of `read_queue` and `write_queue`.
    read_tally: QueueTally,
    write_tally: QueueTally,
    /// `READY_*` flags per bank, written by `classify` for the banks each
    /// decision reads.
    ready: Vec<u8>,
    /// Rank index of each flat bank.
    bank_rank: Vec<usize>,
    /// Issued requests with their completion cycles, which never decrease in
    /// issue order (see `issue`), so the front completes first.
    in_flight: VecDeque<(MemoryRequest, u64)>,
    throttled: ThrottleTable,
    mitigation: Box<dyn MitigationHook>,
    /// Reusable scratch buffer for preventive actions (kept empty between
    /// activations), so the no-action common case never allocates.
    action_scratch: Vec<PreventiveAction>,
    draining_writes: bool,
    next_refresh: u64,
    /// Cycle before which a scheduling scan is known to be fruitless (computed
    /// by the last fruitless scan, or memoized by `next_event_cycle`; lowered
    /// by an enqueue into the examined queue; reset to 0 by an issue, a
    /// refresh, or an enqueue that changes which queue is examined). Lets
    /// per-cycle ticking skip the FR-FCFS scan on cycles where nothing can
    /// issue. A `Cell` so that `next_event_cycle` can store it through `&self`.
    no_schedule_before: Cell<u64>,
    /// Cumulative statistics; `stats.cycles` is the controller's clock.
    stats: MemStats,
    sink: S,
}

impl<S: ObsSink> std::fmt::Debug for MemorySystem<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("cycle", &self.stats.cycles)
            .field("read_queue", &self.read_queue.len())
            .field("write_queue", &self.write_queue.len())
            .field("in_flight", &self.in_flight.len())
            .field("mitigation", &self.mitigation.name())
            .finish()
    }
}

impl MemorySystem<NoopSink> {
    /// Create a memory system with no read-disturbance defense (the paper's
    /// baseline).
    pub fn new(config: MemoryConfig) -> Self {
        Self::with_mitigation(config, Box::new(NoMitigation))
    }

    /// Create a memory system protected by the given defense.
    pub fn with_mitigation(config: MemoryConfig, mitigation: Box<dyn MitigationHook>) -> Self {
        Self::with_mitigation_and_sink(config, mitigation, NoopSink)
    }
}

impl<S: ObsSink> MemorySystem<S> {
    /// Create a memory system protected by the given defense, recording
    /// cycle-domain observations into `sink`.
    pub fn with_mitigation_and_sink(
        config: MemoryConfig,
        mitigation: Box<dyn MitigationHook>,
        sink: S,
    ) -> Self {
        let banks = vec![BankTiming::default(); config.total_banks()];
        let ranks = vec![
            RankTiming::default();
            config.geometry.channels * config.geometry.ranks_per_channel
        ];
        let t = TimingCycles::of(&config);
        let migration_cost =
            2 * (t.t_rcd + config.geometry.columns_per_row as u64 * t.t_ccd_l + t.t_rp);
        let next_refresh = t.t_refi;
        let total_banks = banks.len();
        Self {
            t,
            migration_cost,
            banks,
            ranks,
            bus_free_at: 0,
            read_queue: VecDeque::new(),
            write_queue: VecDeque::new(),
            read_tally: QueueTally::new(total_banks),
            write_tally: QueueTally::new(total_banks),
            ready: vec![0; total_banks],
            bank_rank: (0..total_banks)
                .map(|bank| bank / config.geometry.banks_per_rank())
                .collect(),
            config,
            in_flight: VecDeque::new(),
            throttled: ThrottleTable::new(total_banks),
            mitigation,
            action_scratch: Vec::new(),
            draining_writes: false,
            next_refresh,
            no_schedule_before: Cell::new(0),
            stats: MemStats::default(),
            sink,
        }
    }

    /// The observability sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consume the system, returning the sink with everything it recorded.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Freeze a full metrics snapshot: controller statistics (`mem.*`),
    /// everything the sink recorded, and the defense's pull-style report
    /// (`defense.*`). Entries under `diag.` describe execution strategy;
    /// strip them with [`MetricsSnapshot::canonical`] when comparing
    /// fast-forward against per-cycle runs.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.stats.to_metrics();
        snap.merge(&self.sink.snapshot());
        self.mitigation.report_obs(&mut snap);
        snap
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.stats.cycles
    }

    /// How many more requests of `kind` its queue accepts now.
    pub fn free_slots(&self, kind: RequestKind) -> usize {
        let (capacity, queued) = match kind {
            RequestKind::Read => (self.config.read_queue_entries, self.read_queue.len()),
            RequestKind::Write => (self.config.write_queue_entries, self.write_queue.len()),
        };
        capacity.saturating_sub(queued)
    }

    /// Number of requests currently queued or in flight.
    pub fn outstanding(&self) -> usize {
        self.read_queue.len() + self.write_queue.len() + self.in_flight.len()
    }

    /// Enqueue a request; returns it back if the corresponding queue is full.
    pub fn enqueue(&mut self, mut request: MemoryRequest) -> Result<(), MemoryRequest> {
        if self.free_slots(request.kind) == 0 {
            return Err(request);
        }
        request.arrival_cycle = self.stats.cycles;
        request.dram_addr = self
            .config
            .mapper
            .map(&self.config.geometry, request.phys_addr);
        request.flat_bank = self.config.geometry.flatten_bank(&request.dram_addr);
        request.rank_idx = request.dram_addr.channel * self.config.geometry.ranks_per_channel
            + request.dram_addr.rank;
        let writes_examined = self.writes_selected(self.draining_writes_next());
        let earliest_issue = self.earliest_issue_cycle(&request);
        let joins_writes = request.kind == RequestKind::Write;
        let (bank, row) = (request.flat_bank, request.dram_addr.row);
        let open = self.bank_at(bank).is_open(row);
        self.tally_mut(joins_writes).add(bank, row, open);
        match request.kind {
            RequestKind::Read => {
                self.read_queue.push_back(request);
                if S::ENABLED {
                    let depth = self.read_queue.len() as u64;
                    self.sink.observe(Hist::MemReadQueueDepth, depth);
                    self.sink.gauge_max(Gauge::MemReadQueuePeak, depth);
                }
            }
            RequestKind::Write => {
                self.write_queue.push_back(request);
                if S::ENABLED {
                    let depth = self.write_queue.len() as u64;
                    self.sink.observe(Hist::MemWriteQueueDepth, depth);
                    self.sink.gauge_max(Gauge::MemWriteQueuePeak, depth);
                }
            }
        }
        // The bound covers only the queue FR-FCFS examines. A request joining
        // that queue can lower it to the request's own earliest issue cycle; one
        // joining the other queue cannot issue next tick; one that changes which
        // queue is examined invalidates the bound.
        if self.writes_selected(self.draining_writes_next()) != writes_examined {
            self.no_schedule_before.set(0);
        } else if joins_writes == writes_examined {
            let bound = self.no_schedule_before.get().min(earliest_issue);
            self.no_schedule_before.set(bound);
        }
        Ok(())
    }

    /// Earliest cycle at which `req` passes the bank, rank and activation
    /// timing checks: the eligibility rule of `schedule_one`, throttles aside.
    fn earliest_issue_cycle(&self, req: &MemoryRequest) -> u64 {
        let bank = self.bank_at(req.flat_bank);
        let rank = self.rank_at(req.rank_idx);
        let ready = bank.ready_cycle.max(rank.refresh_busy_until);
        if bank.is_open(req.dram_addr.row) {
            ready
        } else {
            ready.max(rank.next_act_allowed_cycles(self.t.t_rrd_l, self.t.t_faw))
        }
    }

    /// Advance the memory system by one controller cycle and return any requests
    /// whose data transfer completed this cycle.
    pub fn tick(&mut self) -> Vec<CompletedRequest> {
        let mut done = Vec::new();
        self.tick_into(&mut done);
        done
    }

    /// [`tick`](Self::tick) without allocating: completions are appended to `out`.
    pub fn tick_into(&mut self, out: &mut Vec<CompletedRequest>) {
        self.begin_cycle();
        self.schedule();
        self.collect_completions(out);
    }

    /// The first step of a tick: advance the cycle, fire a due refresh and
    /// settle the drain flag.
    fn begin_cycle(&mut self) {
        self.stats.cycles += 1;
        self.maybe_refresh();
        self.update_drain_mode();
    }

    /// The scheduling step of a tick. One scan, compiled per case so the
    /// common no-throttle scan carries no throttle-table code: a shared copy
    /// simulated attacker mixes about 13% slower on a 2-vCPU x86-64 host.
    fn schedule(&mut self) {
        if self.throttled.is_empty() {
            self.schedule_one::<false>();
        } else {
            self.schedule_one::<true>();
        }
    }

    /// The last step of a tick: move every transfer that finished by now
    /// from the front of `in_flight` to `out`, in completion order.
    fn collect_completions(&mut self, out: &mut Vec<CompletedRequest>) {
        let cycle = self.stats.cycles;
        while self.in_flight.front().is_some_and(|&(_, due)| due <= cycle) {
            let Some((req, completion)) = self.in_flight.pop_front() else {
                break;
            };
            match req.kind {
                RequestKind::Read => {
                    self.stats.reads_completed += 1;
                    self.stats.total_read_latency += completion - req.arrival_cycle;
                    if S::ENABLED {
                        self.sink
                            .observe(Hist::MemReadLatency, completion - req.arrival_cycle);
                    }
                }
                RequestKind::Write => self.stats.writes_completed += 1,
            }
            out.push(CompletedRequest {
                id: req.id,
                core: req.core,
                kind: req.kind,
                completion_cycle: completion,
                arrival_cycle: req.arrival_cycle,
            });
        }
    }

    /// The next cycle (strictly after the current one) at which ticking could do
    /// anything beyond per-cycle bookkeeping: schedule a request, complete a data
    /// transfer, or fire a periodic refresh. Every tick strictly before the
    /// returned cycle is *dead* — it only advances the cycle counter and the
    /// per-cycle statistics. Returns `None` when the system is fully idle and
    /// refresh is disabled (nothing will ever happen again without an enqueue).
    ///
    /// When the scheduler's bound is stale, the minimum this computes over
    /// the examined queue is the bound a fruitless scan at the next tick
    /// would store, so it is stored now and that scan is skipped (see the
    /// module docs).
    pub fn next_event_cycle(&self) -> Option<u64> {
        let (next, fresh_bound) = self.next_event();
        if let Some(bound) = fresh_bound {
            self.no_schedule_before.set(bound);
        }
        next
    }

    /// [`next_event_cycle`](Self::next_event_cycle) without storing
    /// anything: the next event, and the examined queue's earliest issue
    /// cycle when it was computed afresh (not read from a still-valid bound,
    /// and with no active throttle).
    fn next_event(&self) -> (Option<u64>, Option<u64>) {
        let floor = self.stats.cycles + 1;
        let mut next: Option<u64> = None;
        let mut consider = |candidate: u64| {
            let c = candidate.max(floor);
            next = Some(next.map_or(c, |n: u64| n.min(c)));
        };

        if self.config.refresh_enabled {
            consider(self.next_refresh);
        }
        if let Some(&(_, due)) = self.in_flight.front() {
            consider(due);
        }
        // Earliest cycle at which FR-FCFS could issue a request from the queue
        // it will examine (after the next tick's drain-mode update).
        let examined = self.writes_selected(self.draining_writes_next());
        let mut fresh_bound = None;
        if self.throttled.is_empty() {
            // The last scheduling scan may already have proved nothing can
            // issue before its bound (and nothing has invalidated it since);
            // otherwise take the minimum over the examined queue's banks.
            let bound = self.no_schedule_before.get();
            let earliest = if bound > self.stats.cycles {
                bound
            } else {
                let earliest = self.earliest_queued_issue(examined);
                fresh_bound = Some(earliest);
                earliest
            };
            if earliest != u64::MAX {
                consider(earliest);
            }
        } else {
            for req in self.queue(examined) {
                let mut c = self.earliest_issue_cycle(req);
                if let Some(until) = self.throttled.get(req.flat_bank, req.dram_addr.row) {
                    c = c.max(until);
                }
                consider(c);
            }
        }
        (next, fresh_bound)
    }

    /// Advance to `target_cycle` (a no-op if already there), producing exactly the
    /// completions and statistics that ticking cycle by cycle would produce, but
    /// skipping runs of dead cycles in O(1) each.
    pub fn tick_until(&mut self, target_cycle: u64, out: &mut Vec<CompletedRequest>) {
        while self.stats.cycles < target_cycle {
            let next = self
                .next_event_cycle()
                .map_or(target_cycle, |e| e.min(target_cycle));
            if next > self.stats.cycles + 1 {
                self.skip_dead_cycles(next - 1 - self.stats.cycles);
            }
            if self.stats.cycles < target_cycle {
                self.tick_into(out);
            }
        }
    }

    /// Fast-forward directly to `target_cycle` when the caller has already
    /// established (via [`next_event_cycle`](Self::next_event_cycle)) that every
    /// cycle up to and including `target_cycle` is dead. Statistics advance
    /// exactly as per-cycle ticking would; no scheduling scan is performed.
    ///
    /// Debug builds assert the precondition; in release builds a violation would
    /// silently diverge from per-cycle semantics, so only call this with a target
    /// strictly below the next event cycle.
    pub fn skip_to_cycle(&mut self, target_cycle: u64) {
        debug_assert!(
            self.next_event().0.is_none_or(|e| target_cycle < e),
            "skip_to_cycle target must precede the next event"
        );
        if target_cycle > self.stats.cycles {
            self.skip_dead_cycles(target_cycle - self.stats.cycles);
        }
    }

    /// Run until all queued requests have completed or `max_cycles` elapse; returns
    /// all completions. Fast-forwards over dead cycles; behaviour and statistics are
    /// identical to ticking every cycle.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<CompletedRequest> {
        let mut out = Vec::new();
        let end = self.stats.cycles + max_cycles;
        while self.stats.cycles < end {
            self.tick_into(&mut out);
            if self.outstanding() == 0 {
                break;
            }
            let next = self.next_event_cycle().map_or(end, |e| e.min(end));
            if next > self.stats.cycles + 1 {
                self.skip_dead_cycles(next - 1 - self.stats.cycles);
            }
        }
        out
    }

    // lint: hot-path
    /// Advance over `n` cycles known to be dead (strictly before the next event),
    /// updating the per-cycle statistics exactly as `n` individual ticks would.
    fn skip_dead_cycles(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let start = self.stats.cycles;
        // Settle the drain flag exactly as the first skipped tick would (queue
        // lengths are frozen over the window, so one update settles it for the
        // whole window).
        self.update_drain_mode();
        // `schedule_one` counts one throttle stall per examined throttled request
        // per cycle; account for the stalls the skipped scans would have recorded.
        if !self.throttled.is_empty() {
            let mut stalls = 0;
            for req in self.queue(self.writes_selected(self.draining_writes)) {
                if let Some(until) = self.throttled.get(req.flat_bank, req.dram_addr.row) {
                    // Ticks at cycles `start+1 ..= start+n` stall while `until > cycle`.
                    let counted_to = until.saturating_sub(1).min(start + n);
                    stalls += counted_to.saturating_sub(start);
                }
            }
            self.stats.throttle_stalls += stalls;
        }
        self.stats.cycles += n;
        if S::ENABLED {
            // Diagnostic only: fast-forward skips exist in event-driven runs
            // but not per-cycle ones, so they live in the `diag.` namespace
            // and never in the event trace. The histogram's count is the
            // number of skips.
            self.sink.observe(Hist::DiagMemSkipSpan, n);
        }
    }

    // ------------------------------------------------------------------

    fn maybe_refresh(&mut self) {
        if !self.config.refresh_enabled || self.stats.cycles < self.next_refresh {
            return;
        }
        let t_rfc = self.t.t_rfc;
        for rank in &mut self.ranks {
            rank.begin_refresh_cycles(self.stats.cycles, t_rfc);
        }
        self.stats.refreshes += self.ranks.len() as u64;
        if S::ENABLED {
            self.sink.counter(Counter::MemRefreshFired, 1);
            self.sink.event(
                self.stats.cycles,
                EventKind::RefreshFired,
                self.ranks.len() as u64,
                0,
                0,
            );
        }
        self.mitigation.on_refresh_tick(self.stats.cycles);
        self.next_refresh += self.t.t_refi;
        // Rank state changed; conservatively allow the next scan to re-derive.
        self.no_schedule_before.set(0);
    }

    fn update_drain_mode(&mut self) {
        self.draining_writes = self.draining_writes_next();
    }

    /// The drain flag as the *next* tick's `update_drain_mode` will leave it.
    /// `draining_writes` is only refreshed at the top of each tick, so after a
    /// tick that dequeued a write the stored flag can be stale; event prediction
    /// must use the settled value.
    fn draining_writes_next(&self) -> bool {
        if self.write_queue.len() >= self.config.write_drain_high {
            true
        } else if self.write_queue.len() <= self.config.write_drain_low {
            false
        } else {
            self.draining_writes
        }
    }

    /// Whether FR-FCFS examines the write queue under drain flag `draining`
    /// (write drain, or no reads pending).
    fn writes_selected(&self, draining: bool) -> bool {
        (draining || self.read_queue.is_empty()) && !self.write_queue.is_empty()
    }

    /// The write queue if `writes`, else the read queue.
    fn queue(&self, writes: bool) -> &VecDeque<MemoryRequest> {
        if writes {
            &self.write_queue
        } else {
            &self.read_queue
        }
    }

    /// The tallies of the write queue if `writes`, else of the read queue.
    fn tally(&self, writes: bool) -> &QueueTally {
        if writes {
            &self.write_tally
        } else {
            &self.read_tally
        }
    }

    fn tally_mut(&mut self, writes: bool) -> &mut QueueTally {
        if writes {
            &mut self.write_tally
        } else {
            &mut self.read_tally
        }
    }

    /// Every bank with a request in the write queue if `writes`, else the
    /// read queue, with the earliest issue cycles of its two request
    /// classes: the requests to its open row, then the rest (`u64::MAX` for
    /// an empty class). Banks come in index order, which is rank-major, so
    /// each rank's activation bound is computed once per pass.
    #[inline]
    fn class_issue_cycles(&self, writes: bool) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let tally = self.tally(writes);
        // (rank, its refresh end, its activation bound)
        let mut rank_state = (usize::MAX, 0, 0);
        tally.nonempty().iter().map(move |bank| {
            let rank_idx = self.rank_of(bank);
            if rank_idx != rank_state.0 {
                let rank = self.rank_at(rank_idx);
                let act = rank.next_act_allowed_cycles(self.t.t_rrd_l, self.t.t_faw);
                rank_state = (rank_idx, rank.refresh_busy_until, act);
            }
            let ready = self.bank_at(bank).ready_cycle.max(rank_state.1);
            let open = tally.open(bank);
            let open_at = if open > 0 { ready } else { u64::MAX };
            let closed_at = if tally.entries(bank) > open {
                ready.max(rank_state.2)
            } else {
                u64::MAX
            };
            (bank, open_at, closed_at)
        })
    }

    /// Minimum `earliest_issue_cycle` over the write queue if `writes`, else
    /// the read queue (`u64::MAX` when it is empty), from the bank tallies.
    fn earliest_queued_issue(&self, writes: bool) -> u64 {
        self.class_issue_cycles(writes)
            .map(|(_, open_at, closed_at)| open_at.min(closed_at))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Write into `ready` which request classes of each bank of the examined
    /// queue can issue this cycle. With no active throttle (`!THROTTLES`) a
    /// ready row hit settles the decision, so the banks with open-row
    /// requests are tried first and, if one has a ready hit, only their
    /// `READY_HIT` flags are written: the walk then reads nothing else.
    /// Otherwise every non-empty bank gets all its flags.
    fn classify<const THROTTLES: bool>(&self, writes: bool, ready: &mut [u8]) -> Verdict {
        let cycle = self.stats.cycles;
        let cap = self.config.column_cap;
        let tally = self.tally(writes);
        if !THROTTLES {
            let mut any_hit = false;
            for bank in tally.with_open().iter() {
                let b = self.bank_at(bank);
                let refresh_busy_until = self.rank_at(self.rank_of(bank)).refresh_busy_until;
                let hit =
                    b.consecutive_hits < cap && b.ready_cycle.max(refresh_busy_until) <= cycle;
                if let Some(flags) = ready.get_mut(bank) {
                    *flags = if hit { READY_HIT } else { 0 };
                }
                any_hit |= hit;
            }
            if any_hit {
                return Verdict {
                    any_hit,
                    any_eligible: true,
                    earliest: u64::MAX,
                };
            }
        }
        let (mut any_hit, mut any_eligible) = (false, false);
        let mut earliest = u64::MAX;
        for (bank, open_at, closed_at) in self.class_issue_cycles(writes) {
            // Branch-free: whether a class is ready is data-dependent.
            let open_ready = open_at <= cycle;
            let closed_ready = closed_at <= cycle;
            let hit = open_ready && self.bank_at(bank).consecutive_hits < cap;
            earliest = earliest
                .min(if open_ready { u64::MAX } else { open_at })
                .min(if closed_ready { u64::MAX } else { closed_at });
            let flag = |on: bool, flag: u8| if on { flag } else { 0 };
            let flags = flag(hit, READY_HIT)
                | flag(open_ready, READY_OPEN)
                | flag(closed_ready, READY_CLOSED);
            if let Some(f) = ready.get_mut(bank) {
                *f = flags;
            }
            any_hit |= hit;
            any_eligible |= flags != 0;
        }
        Verdict {
            any_hit,
            any_eligible,
            earliest,
        }
    }

    /// FR-FCFS: issue the oldest eligible row hit under the column cap, else the
    /// oldest eligible request (see the module docs for the single scan).
    /// `THROTTLES` says whether the throttle table is non-empty.
    fn schedule_one<const THROTTLES: bool>(&mut self) {
        // A previous fruitless scan proved nothing can issue before
        // `no_schedule_before` (and everything since that could enable an
        // earlier issue has lowered or reset the bound). Skipping is only exact
        // with no active throttles, because a scan over throttled requests
        // records per-cycle stall statistics.
        if !THROTTLES && self.stats.cycles < self.no_schedule_before.get() {
            return;
        }
        let from_writes = self.writes_selected(self.draining_writes);
        let mut ready = std::mem::take(&mut self.ready);
        let verdict = self.classify::<THROTTLES>(from_writes, &mut ready);
        // With nothing eligible and no throttle stall to count, the queue is
        // not visited at all.
        let chosen = if THROTTLES || verdict.any_eligible {
            self.walk::<THROTTLES>(from_writes, &ready, THROTTLES || !verdict.any_hit)
        } else {
            None
        };
        self.ready = ready;

        let Some(chosen) = chosen else {
            // The earliest cycle at which some ineligible class could issue.
            // It also covers throttled entries, which is harmless: it is read
            // only while the throttle table is empty, and a scan that leaves
            // the table empty has seen no active throttle.
            self.no_schedule_before.set(verdict.earliest);
            return;
        };
        let queue = if from_writes {
            &mut self.write_queue
        } else {
            &mut self.read_queue
        };
        // `chosen` came from enumerating this queue above, so `remove` cannot
        // miss; a defensive `return` beats a panic in library code.
        let Some(req) = queue.remove(chosen) else {
            return;
        };
        let (bank, row) = (req.flat_bank, req.dram_addr.row);
        let open = self.bank_at(bank).is_open(row);
        self.tally_mut(from_writes).remove(bank, row, open);
        // Issuing changes bank and rank state (and may open a row), which can
        // make other requests schedulable immediately.
        self.no_schedule_before.set(0);
        self.issue(req);
    }

    /// Walk the queue `from_writes` selects for the request to issue, given
    /// `classify`'s flags in `ready`: the first ready row hit, else (if
    /// `any_class`) the first request of a ready class. With no active
    /// throttle that first match ends the walk. While throttles are active
    /// every entry is visited to count its stall, and a younger unthrottled
    /// hit beats an older non-hit.
    fn walk<const THROTTLES: bool>(
        &mut self,
        from_writes: bool,
        ready: &[u8],
        any_class: bool,
    ) -> Option<usize> {
        let cycle = self.stats.cycles;
        let mut oldest: Option<usize> = None;
        let mut oldest_hit: Option<usize> = None;
        let mut throttle_stalls = 0u64;
        let mut saw_expired_throttle = false;
        for (idx, req) in self.queue(from_writes).iter().enumerate() {
            if THROTTLES {
                if let Some(until) = self.throttled.get(req.flat_bank, req.dram_addr.row) {
                    if until > cycle {
                        throttle_stalls += 1;
                        continue;
                    }
                    saw_expired_throttle = true;
                }
            }
            if oldest_hit.is_some() {
                // Still counting throttle stalls; the choice is made.
                continue;
            }
            let bank = req.flat_bank;
            let open = self.bank_at(bank).is_open(req.dram_addr.row);
            let flags = ready.get(bank).copied().unwrap_or(0);
            if open && flags & READY_HIT != 0 {
                oldest_hit = Some(idx);
                if !THROTTLES {
                    break;
                }
            } else if any_class && oldest.is_none() {
                let class = if open { READY_OPEN } else { READY_CLOSED };
                if flags & class != 0 {
                    oldest = Some(idx);
                    if !THROTTLES {
                        break;
                    }
                }
            }
        }
        self.stats.throttle_stalls += throttle_stalls;
        // Purge expired throttle windows encountered by this scan so stale
        // entries cannot linger in the table forever.
        if saw_expired_throttle {
            self.throttled.retain_active(cycle);
        }
        oldest_hit.or(oldest)
    }

    /// Open `row` (or close the bank, for `None`) in bank `bank`, recounting
    /// both queues' open-row tallies of the bank.
    fn set_open_row(&mut self, bank: usize, row: Option<usize>) {
        self.bank_at_mut(bank).open_row = row;
        self.read_tally.reopen(bank, row);
        self.write_tally.reopen(bank, row);
    }

    // ------------------------------------------------------------------
    // Checked internal accessors
    //
    // `flat_bank` / `rank_idx` are stamped onto every request by `enqueue`
    // via `geometry.flatten_bank`, which always yields in-range indices;
    // `execute_actions` falls back to the (valid) activating bank for a target
    // outside the geometry. All bank/rank indexing funnels through these four
    // sites.
    // ------------------------------------------------------------------

    fn bank_at(&self, idx: usize) -> &BankTiming {
        // lint: allow(panic) -- flat_bank stamped by enqueue is in range by construction
        &self.banks[idx]
    }

    fn bank_at_mut(&mut self, idx: usize) -> &mut BankTiming {
        // lint: allow(panic) -- flat_bank stamped by enqueue is in range by construction
        &mut self.banks[idx]
    }

    fn rank_of(&self, bank: usize) -> usize {
        self.bank_rank.get(bank).copied().unwrap_or(0)
    }

    fn rank_at(&self, idx: usize) -> &RankTiming {
        // lint: allow(panic) -- rank_idx stamped by enqueue is in range by construction
        &self.ranks[idx]
    }

    fn rank_at_mut(&mut self, idx: usize) -> &mut RankTiming {
        // lint: allow(panic) -- rank_idx stamped by enqueue is in range by construction
        &mut self.ranks[idx]
    }

    fn issue(&mut self, req: MemoryRequest) {
        let t = self.t;
        let bank_idx = req.flat_bank;
        let rank_idx = req.rank_idx;
        let row = req.dram_addr.row;
        let cycle = self.stats.cycles;

        let is_hit = self.bank_at(bank_idx).is_open(row);
        let needs_conflict_pre = !is_hit && self.bank_at(bank_idx).open_row.is_some();

        if S::ENABLED {
            let mut flags = match req.kind {
                RequestKind::Read => 0,
                RequestKind::Write => 1,
            };
            if !is_hit {
                flags |= 2;
            }
            self.sink.counter(Counter::MemCmdIssued, 1);
            self.sink.event(
                cycle,
                EventKind::CmdIssued,
                bank_idx as u64,
                row as u64,
                flags,
            );
        }

        // Time at which the column command can issue.
        let mut col_issue = cycle;
        if !is_hit {
            let mut act_cycle = cycle;
            if needs_conflict_pre {
                // Respect tRAS before precharging, then pay tRP.
                let pre_cycle = cycle.max(self.bank_at(bank_idx).last_act_cycle + t.t_ras);
                act_cycle = pre_cycle + t.t_rp;
                self.stats.row_conflicts += 1;
            } else {
                self.stats.row_misses += 1;
            }
            act_cycle = act_cycle.max(
                self.rank_at(rank_idx)
                    .next_act_allowed_cycles(t.t_rrd_l, t.t_faw),
            );
            self.rank_at_mut(rank_idx).record_act(act_cycle);
            self.set_open_row(bank_idx, Some(row));
            let bank = self.bank_at_mut(bank_idx);
            bank.last_act_cycle = act_cycle;
            bank.consecutive_hits = 0;
            bank.activations += 1;
            self.stats.activations += 1;
            col_issue = act_cycle + t.t_rcd;

            // Notify the defense and execute whatever it asks for, via the reusable
            // scratch buffer (no allocation when no action is requested).
            let bank_id = req.dram_addr.bank_id();
            let mut actions = std::mem::take(&mut self.action_scratch);
            self.mitigation
                .on_activation(bank_id, row, act_cycle, &mut actions);
            if !actions.is_empty() {
                self.execute_actions(bank_idx, act_cycle, &mut actions);
            }
            self.action_scratch = actions;
        } else {
            self.stats.row_hits += 1;
            self.bank_at_mut(bank_idx).consecutive_hits += 1;
        }

        let col_latency = match req.kind {
            RequestKind::Read => t.t_cl,
            RequestKind::Write => t.t_cwl,
        };
        let data_start = (col_issue + col_latency).max(self.bus_free_at);
        let completion = data_start + t.burst;
        self.bus_free_at = completion;
        // The bank can take its next column command a tCCD later, and cannot be
        // precharged before tRAS/tWR expire; occupy it conservatively to the column
        // issue plus tCCD.
        let bank_next = (col_issue + t.t_ccd_l).max(cycle + 1);
        self.bank_at_mut(bank_idx).occupy_until(bank_next);
        // The data bus serializes transfers: each completes a burst after the
        // previous one at the earliest, so `in_flight` stays in completion
        // order (and, with a burst of a cycle or more, at most one transfer
        // completes per cycle).
        debug_assert!(self
            .in_flight
            .back()
            .is_none_or(|&(_, last)| last <= completion));
        self.in_flight.push_back((req, completion));
    }

    /// Execute the preventive actions of one activation, draining `actions` (the
    /// caller's scratch buffer, which stays allocated for reuse).
    fn execute_actions(
        &mut self,
        origin_bank_idx: usize,
        act_cycle: u64,
        actions: &mut Vec<PreventiveAction>,
    ) {
        let t = self.t;
        let migration_cost = self.migration_cost;
        let banks_per_rank = self.config.geometry.banks_per_rank();
        for action in actions.drain(..) {
            // Event code, target bank and row-ish payload of the action; a
            // target outside the geometry falls back to the activating bank.
            let (code, bank, payload) = match action {
                PreventiveAction::RefreshRow { bank, row } => (0u64, bank, row as u64),
                PreventiveAction::ThrottleRow { bank, row, .. } => (1, bank, row as u64),
                PreventiveAction::MigrateRow { bank, to_row, .. } => (2, bank, to_row as u64),
                PreventiveAction::SwapRows { bank, row_a, .. } => (3, bank, row_a as u64),
                PreventiveAction::ExtraTraffic { bank, accesses } => (4, bank, accesses as u64),
            };
            let idx = self
                .config
                .geometry
                .bank_index(bank)
                .unwrap_or(origin_bank_idx);
            if S::ENABLED {
                self.sink.counter(Counter::MemMitigationActions, 1);
                self.sink.event(
                    act_cycle,
                    EventKind::MitigationFired,
                    code,
                    idx as u64,
                    payload,
                );
            }
            match action {
                PreventiveAction::RefreshRow { .. } => {
                    // Credit the refresh ACT to the rank that owns the target
                    // bank (it may differ from the activating rank); flat bank
                    // indices are rank-major.
                    let start = self.bank_at(idx).ready_cycle.max(act_cycle);
                    self.bank_at_mut(idx).occupy_until(start + t.t_rc);
                    self.rank_at_mut(idx / banks_per_rank).record_act(start);
                    self.stats.preventive_refreshes += 1;
                }
                PreventiveAction::ThrottleRow {
                    row, until_cycle, ..
                } => {
                    self.throttled.insert(idx, row, until_cycle);
                    if S::ENABLED {
                        self.sink.counter(Counter::MemThrottleEngaged, 1);
                        self.sink.event(
                            act_cycle,
                            EventKind::ThrottleEngaged,
                            idx as u64,
                            row as u64,
                            until_cycle,
                        );
                        self.sink
                            .gauge_max(Gauge::MemThrottleTablePeak, self.throttled.len() as u64);
                    }
                }
                PreventiveAction::MigrateRow { .. } => {
                    let b = self.bank_at_mut(idx);
                    let start = b.ready_cycle.max(act_cycle);
                    b.occupy_until(start + migration_cost);
                    self.set_open_row(idx, None);
                    self.stats.row_migrations += 1;
                }
                PreventiveAction::SwapRows { .. } => {
                    let b = self.bank_at_mut(idx);
                    let start = b.ready_cycle.max(act_cycle);
                    b.occupy_until(start + 2 * migration_cost);
                    self.set_open_row(idx, None);
                    self.stats.row_swaps += 1;
                }
                PreventiveAction::ExtraTraffic { accesses, .. } => {
                    let cost = t.t_rc + accesses as u64 * t.t_ccd_l;
                    let b = self.bank_at_mut(idx);
                    let start = b.ready_cycle.max(act_cycle);
                    b.occupy_until(start + cost);
                    self.stats.extra_accesses += accesses as u64;
                }
            }
        }
        // Garbage-collect expired throttles occasionally to bound the table (the
        // purge-on-lookup in `schedule_one` keeps entries for scheduled rows from
        // lingering; this sweep catches rows that are never requested again).
        if self.throttled.len() > 4096 {
            let cycle = self.stats.cycles;
            self.throttled.retain_active(cycle);
        }
    }
    // lint: end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use svard_dram::address::BankId;

    fn read_at(id: u64, addr: u64) -> MemoryRequest {
        MemoryRequest::read(id, addr, 0)
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let mut mem = MemorySystem::new(MemoryConfig::small(1024));
        mem.enqueue(read_at(1, 0x1000)).unwrap();
        let done = mem.run_until_idle(10_000);
        assert_eq!(done.len(), 1);
        let t = &mem.config().timing.clone();
        let expected_min = t.t_rcd() + t.t_cl() + t.burst_cycles;
        assert!(done[0].latency() >= expected_min);
        assert!(done[0].latency() < expected_min + 20);
        assert_eq!(mem.stats().row_misses, 1);
    }

    #[test]
    fn row_hits_are_faster_than_misses() {
        let mut mem = MemorySystem::new(MemoryConfig::small(1024));
        // Two consecutive cache lines map to the same row under MOP.
        mem.enqueue(read_at(1, 0x0)).unwrap();
        mem.enqueue(read_at(2, 0x40)).unwrap();
        let done = mem.run_until_idle(10_000);
        assert_eq!(done.len(), 2);
        assert_eq!(mem.stats().row_hits, 1);
        assert_eq!(mem.stats().row_misses, 1);
        let miss = done.iter().find(|c| c.id == 1).unwrap();
        let hit = done.iter().find(|c| c.id == 2).unwrap();
        assert!(hit.completion_cycle > miss.completion_cycle);
        // The row hit is served shortly after the miss, without paying another
        // activation (tRCD) or precharge (tRP).
        let t = mem.config().timing.clone();
        assert!(hit.completion_cycle - miss.completion_cycle < t.t_rcd() + t.t_rp());
    }

    #[test]
    fn conflicting_rows_pay_precharge() {
        let g = MemoryConfig::small(1024).geometry;
        // Find two addresses in the same bank but different rows.
        let mapper = svard_dram::mapping::AddressMapper::Mop;
        let a0 = 0u64;
        let base = mapper.map(&g, a0);
        let mut conflict_addr = None;
        for candidate in (64..(1 << 26)).step_by(64) {
            let m = mapper.map(&g, candidate);
            if m.same_bank(&base) && m.row != base.row {
                conflict_addr = Some(candidate);
                break;
            }
        }
        let conflict_addr = conflict_addr.expect("found a conflicting address");
        let mut mem = MemorySystem::new(MemoryConfig::small(1024));
        mem.enqueue(read_at(1, a0)).unwrap();
        let first = mem.run_until_idle(10_000);
        mem.enqueue(read_at(2, conflict_addr)).unwrap();
        let second = mem.run_until_idle(10_000);
        assert_eq!(first.len() + second.len(), 2);
        assert_eq!(mem.stats().row_conflicts, 1);
        assert!(second[0].latency() > first[0].latency());
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut mem = MemorySystem::new(MemoryConfig::small(256));
        let mut accepted = 0;
        for i in 0..200 {
            if mem.enqueue(read_at(i, i * 64)).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, mem.config().read_queue_entries);
    }

    #[test]
    fn refresh_happens_periodically() {
        let mut mem = MemorySystem::new(MemoryConfig::small(256));
        let refi = mem.config().timing.t_refi();
        for _ in 0..(refi * 3 + 10) {
            mem.tick();
        }
        // Two ranks refresh at each tREFI boundary.
        assert_eq!(mem.stats().refreshes, 3 * 2);
    }

    #[test]
    fn refresh_happens_periodically_when_fast_forwarded() {
        let mut mem = MemorySystem::new(MemoryConfig::small(256));
        let refi = mem.config().timing.t_refi();
        let mut out = Vec::new();
        mem.tick_until(refi * 3 + 10, &mut out);
        assert!(out.is_empty());
        assert_eq!(mem.cycle(), refi * 3 + 10);
        assert_eq!(mem.stats().cycles, refi * 3 + 10);
        assert_eq!(mem.stats().refreshes, 3 * 2);
    }

    #[test]
    fn all_enqueued_requests_eventually_complete() {
        let mut mem = MemorySystem::new(MemoryConfig::small(4096));
        let mut completed = 0u64;
        let mut issued = 0u64;
        let mut next_id = 0u64;
        let mut addr = 0u64;
        for cycle in 0..200_000u64 {
            if cycle % 7 == 0 && issued < 500 {
                let req = if next_id.is_multiple_of(4) {
                    MemoryRequest::write(next_id, addr, 0)
                } else {
                    MemoryRequest::read(next_id, addr, 0)
                };
                if mem.enqueue(req).is_ok() {
                    issued += 1;
                    next_id += 1;
                    addr = addr.wrapping_add(0x1_0040);
                }
            }
            completed += mem.tick().len() as u64;
            if completed == 500 {
                break;
            }
        }
        assert_eq!(completed, 500);
        assert_eq!(mem.stats().requests_completed(), 500);
    }

    /// A mitigation that refreshes a victim on every activation, to verify the
    /// controller pays for preventive actions.
    struct AlwaysRefresh {
        count: Rc<RefCell<u64>>,
    }
    impl MitigationHook for AlwaysRefresh {
        fn on_activation(
            &mut self,
            bank: BankId,
            row: usize,
            _cycle: u64,
            out: &mut Vec<PreventiveAction>,
        ) {
            *self.count.borrow_mut() += 1;
            out.push(PreventiveAction::RefreshRow {
                bank,
                row: row.saturating_sub(1),
            });
            out.push(PreventiveAction::RefreshRow { bank, row: row + 1 });
        }
        fn name(&self) -> &str {
            "always-refresh"
        }
    }

    #[test]
    fn preventive_refreshes_slow_the_system_down() {
        let run = |mitigated: bool| -> (u64, u64) {
            let count = Rc::new(RefCell::new(0));
            let mut mem = if mitigated {
                MemorySystem::with_mitigation(
                    MemoryConfig::small(4096),
                    Box::new(AlwaysRefresh {
                        count: count.clone(),
                    }),
                )
            } else {
                MemorySystem::new(MemoryConfig::small(4096))
            };
            // Row-conflict-heavy stream to force many activations in one bank.
            let mapper = svard_dram::mapping::AddressMapper::Mop;
            let g = mem.config().geometry.clone();
            let base = mapper.map(&g, 0);
            let addrs: Vec<u64> = (0..(1u64 << 27))
                .step_by(64)
                .filter(|&a| {
                    let m = mapper.map(&g, a);
                    m.same_bank(&base)
                })
                .take(64)
                .collect();
            let mut issued = 0;
            let mut completed = 0;
            let mut cycles = 0;
            while completed < addrs.len() && cycles < 1_000_000 {
                if issued < addrs.len()
                    && mem
                        .enqueue(MemoryRequest::read(issued as u64, addrs[issued], 0))
                        .is_ok()
                {
                    issued += 1;
                }
                completed += mem.tick().len();
                cycles += 1;
            }
            (cycles, mem.stats().preventive_refreshes)
        };
        let (baseline_cycles, baseline_refreshes) = run(false);
        let (mitigated_cycles, mitigated_refreshes) = run(true);
        assert_eq!(baseline_refreshes, 0);
        assert!(mitigated_refreshes > 0);
        assert!(
            mitigated_cycles > baseline_cycles,
            "mitigated {mitigated_cycles} vs baseline {baseline_cycles}"
        );
    }

    /// A mitigation that throttles a hot row.
    struct ThrottleEverything;
    impl MitigationHook for ThrottleEverything {
        fn on_activation(
            &mut self,
            bank: BankId,
            row: usize,
            cycle: u64,
            out: &mut Vec<PreventiveAction>,
        ) {
            out.push(PreventiveAction::ThrottleRow {
                bank,
                row,
                until_cycle: cycle + 5000,
            });
        }
        fn name(&self) -> &str {
            "throttle-everything"
        }
    }

    #[test]
    fn throttling_delays_repeated_activations_of_a_row() {
        let config = MemoryConfig::small(1024);
        let mapper = svard_dram::mapping::AddressMapper::Mop;
        let g = config.geometry.clone();
        let base = mapper.map(&g, 0);
        // Two different rows in the same bank: activating A throttles A, then a
        // conflicting access to A again must wait out the throttle window.
        let conflicting: Vec<u64> = (0..(1u64 << 27))
            .step_by(64)
            .filter(|&a| {
                let m = mapper.map(&g, a);
                m.same_bank(&base) && m.row != base.row
            })
            .take(1)
            .collect();
        let mut mem = MemorySystem::with_mitigation(config, Box::new(ThrottleEverything));
        mem.enqueue(MemoryRequest::read(0, 0, 0)).unwrap();
        let first = mem.run_until_idle(100_000);
        // Re-access row 0 (throttled) while also queueing the other row.
        mem.enqueue(MemoryRequest::read(1, conflicting[0], 0))
            .unwrap();
        mem.enqueue(MemoryRequest::read(2, 0, 0)).unwrap();
        let rest = mem.run_until_idle(100_000);
        assert_eq!(first.len() + rest.len(), 3);
        assert!(mem.stats().throttle_stalls > 0);
        // The throttled re-access to row 0 finishes well after the un-throttled one.
        let other = rest.iter().find(|c| c.id == 1).unwrap();
        let throttled = rest.iter().find(|c| c.id == 2).unwrap();
        assert!(throttled.completion_cycle > other.completion_cycle);
    }

    /// A mitigation that refreshes a fixed victim row in a *different* rank than
    /// the one being activated.
    struct CrossRankRefresh {
        target: BankId,
    }
    impl MitigationHook for CrossRankRefresh {
        fn on_activation(
            &mut self,
            _bank: BankId,
            _row: usize,
            _cycle: u64,
            out: &mut Vec<PreventiveAction>,
        ) {
            out.push(PreventiveAction::RefreshRow {
                bank: self.target,
                row: 1,
            });
        }
        fn name(&self) -> &str {
            "cross-rank-refresh"
        }
    }

    #[test]
    fn cross_rank_refresh_is_credited_to_the_target_rank() {
        // Activate in rank 0; the defense refreshes a row in rank 1. The ACT for
        // the preventive refresh must count against rank 1's tRRD/tFAW window, not
        // rank 0's.
        let target = BankId {
            channel: 0,
            rank: 1,
            bank_group: 0,
            bank: 0,
        };
        let mut mem = MemorySystem::with_mitigation(
            MemoryConfig::small(1024),
            Box::new(CrossRankRefresh { target }),
        );
        // Address 0 maps to rank 0 under MOP in this geometry.
        let addr0 = {
            let g = mem.config().geometry.clone();
            let mapper = mem.config().mapper;
            (0..(1u64 << 24))
                .step_by(64)
                .find(|&a| mapper.map(&g, a).rank == 0)
                .unwrap()
        };
        mem.enqueue(read_at(1, addr0)).unwrap();
        mem.run_until_idle(10_000);
        assert_eq!(mem.stats().preventive_refreshes, 1);
        let t = TimingCycles::of(mem.config());
        // Rank 1 received the preventive ACT: its next activation is tRRD-limited.
        assert!(mem.ranks[1].next_act_allowed_cycles(t.t_rrd_l, t.t_faw) > 0);
    }

    #[test]
    fn expired_throttles_are_purged_on_lookup() {
        let mut mem =
            MemorySystem::with_mitigation(MemoryConfig::small(1024), Box::new(ThrottleEverything));
        mem.enqueue(read_at(1, 0)).unwrap();
        mem.run_until_idle(100_000);
        assert_eq!(mem.throttled.len(), 1);
        // Re-request the throttled row: the scheduler stalls it until the window
        // expires, then drops the stale entry on lookup. The re-access is a row hit
        // (no new activation), so the table ends up empty.
        mem.enqueue(read_at(2, 0)).unwrap();
        let done = mem.run_until_idle(100_000);
        assert_eq!(done.len(), 1);
        assert!(mem.stats().throttle_stalls > 0);
        assert!(
            mem.throttled.is_empty(),
            "stale throttle entry was not purged"
        );
    }

    /// A mitigation that throttles only the first row it sees activated.
    struct ThrottleFirstActivation {
        window: u64,
        fired: bool,
    }
    impl MitigationHook for ThrottleFirstActivation {
        fn on_activation(
            &mut self,
            bank: BankId,
            row: usize,
            cycle: u64,
            out: &mut Vec<PreventiveAction>,
        ) {
            if !std::mem::replace(&mut self.fired, true) {
                out.push(PreventiveAction::ThrottleRow {
                    bank,
                    row,
                    until_cycle: cycle + self.window,
                });
            }
        }
        fn name(&self) -> &str {
            "throttle-first-activation"
        }
    }

    #[test]
    fn throttled_request_waits_while_a_younger_hit_issues() {
        let mut config = MemoryConfig::small(1024);
        config.refresh_enabled = false;
        let g = config.geometry.clone();
        let mapper = config.mapper;
        let throttled_addr = 0u64;
        let base = mapper.map(&g, throttled_addr);
        let other_addr = (64..(1u64 << 24))
            .step_by(64)
            .find(|&a| !mapper.map(&g, a).same_bank(&base))
            .unwrap();
        let mut mem = MemorySystem::with_mitigation(
            config,
            Box::new(ThrottleFirstActivation {
                window: 2_000,
                fired: false,
            }),
        );
        // Open (and throttle) the row of `throttled_addr`, then open the row of
        // `other_addr` in another bank without a throttle.
        mem.enqueue(read_at(0, throttled_addr)).unwrap();
        mem.run_until_idle(10_000);
        mem.enqueue(read_at(1, other_addr)).unwrap();
        mem.run_until_idle(10_000);
        let until = mem.throttled.get(g.flatten_bank(&base), base.row).unwrap();
        assert!(mem.cycle() + 1 < until);

        // Both are row hits; the older one is throttled, so the younger issues.
        mem.enqueue(read_at(2, throttled_addr)).unwrap();
        mem.enqueue(read_at(3, other_addr)).unwrap();
        let mut done = Vec::new();
        let mut stalls = mem.stats().throttle_stalls;
        while mem.cycle() + 1 < until {
            mem.tick_into(&mut done);
            stalls += 1;
            assert_eq!(mem.stats().throttle_stalls, stalls);
            assert_eq!(mem.read_queue.len(), 1);
            assert_eq!(mem.read_queue.front().map(|r| r.id), Some(2));
        }
        assert!(done.iter().any(|c| c.id == 3));
        // The window expires: the entry is purged and the request issues.
        mem.tick_into(&mut done);
        assert_eq!(mem.cycle(), until);
        assert_eq!(mem.stats().throttle_stalls, stalls);
        assert!(mem.throttled.is_empty());
        assert!(mem.read_queue.is_empty());
        done.extend(mem.run_until_idle(10_000));
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    /// Per-cycle reference loop for the equivalence check below.
    fn drain_per_cycle(mem: &mut MemorySystem, max_cycles: u64) -> Vec<CompletedRequest> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            out.extend(mem.tick());
            if mem.outstanding() == 0 {
                break;
            }
        }
        out
    }

    #[test]
    fn recorder_sink_observes_issue_refresh_and_mitigation_paths() {
        use svard_obs::Recorder;
        let mut mem = MemorySystem::with_mitigation_and_sink(
            MemoryConfig::small(1024),
            Box::new(ThrottleEverything),
            Recorder::new(),
        );
        mem.enqueue(read_at(1, 0)).unwrap();
        mem.run_until_idle(100_000);
        // Advance past a refresh boundary so the refresh path records too.
        let past_refresh = mem.cycle() + mem.config().timing.t_refi() + 10;
        let mut out = Vec::new();
        mem.tick_until(past_refresh, &mut out);
        let snap = mem.metrics();
        assert_eq!(snap.counter("mem.cmd_issued"), 1);
        assert_eq!(snap.counter("mem.throttle_engaged"), 1);
        assert_eq!(snap.counter("mem.mitigation_actions"), 1);
        assert!(snap.counter("mem.refresh_fired") > 0);
        assert_eq!(snap.gauge("mem.read_queue_peak"), 1);
        assert_eq!(snap.hists.get("mem.read_latency").map(|h| h.count), Some(1));
        // Stats-derived counters ride in the same snapshot.
        assert_eq!(snap.counter("mem.reads_completed"), 1);
        // Event stream: one cmd_issued, one mitigation_fired + throttle_engaged.
        let kinds: Vec<&str> = mem.sink().trace().iter().map(|e| e.kind.name()).collect();
        assert!(kinds.contains(&"cmd_issued"));
        assert!(kinds.contains(&"mitigation_fired"));
        assert!(kinds.contains(&"throttle_engaged"));
        // Fast-forward skips are diagnostic: recorded, but never as events.
        assert!(snap
            .hists
            .get("diag.mem.skip_span")
            .is_some_and(|h| h.count > 0));
    }

    #[test]
    fn canonical_trace_is_identical_between_fast_forward_and_per_cycle() {
        use svard_obs::Recorder;
        let build = || {
            let mut mem = MemorySystem::with_mitigation_and_sink(
                MemoryConfig::small(2048),
                Box::new(ThrottleEverything),
                Recorder::new(),
            );
            for i in 0..24u64 {
                mem.enqueue(read_at(i, (i % 6) * 0x1_0040)).unwrap();
            }
            mem
        };
        let mut slow = build();
        let mut fast = build();
        let slow_done = drain_per_cycle_generic(&mut slow, 200_000);
        let fast_done = fast.run_until_idle(200_000);
        assert_eq!(slow_done, fast_done);
        assert_eq!(slow.sink().trace_jsonl(), fast.sink().trace_jsonl());
        assert_eq!(slow.metrics().canonical(), fast.metrics().canonical());
        // The per-cycle run took no skips; the fast-forward run did.
        assert!(!slow.metrics().hists.contains_key("diag.mem.skip_span"));
        assert!(fast.metrics().hists.contains_key("diag.mem.skip_span"));
    }

    fn drain_per_cycle_generic<S: svard_obs::ObsSink>(
        mem: &mut MemorySystem<S>,
        max_cycles: u64,
    ) -> Vec<CompletedRequest> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            out.extend(mem.tick());
            if mem.outstanding() == 0 {
                break;
            }
        }
        out
    }

    #[test]
    fn fast_forwarded_drain_matches_per_cycle_ticking() {
        let build = || {
            let mut mem = MemorySystem::new(MemoryConfig::small(2048));
            for i in 0..40u64 {
                mem.enqueue(read_at(i, i * 0x1_0040)).unwrap();
            }
            mem
        };
        let mut slow = build();
        let mut fast = build();
        let slow_done = drain_per_cycle(&mut slow, 100_000);
        let fast_done = fast.run_until_idle(100_000);
        assert_eq!(slow_done, fast_done);
        assert_eq!(slow.stats(), fast.stats());
        assert_eq!(slow.cycle(), fast.cycle());
    }

    /// Earliest cycle at which a request in the queue the next tick examines
    /// can issue (`u64::MAX` when that queue is empty).
    fn earliest_examined_issue(mem: &MemorySystem) -> u64 {
        mem.queue(mem.writes_selected(mem.draining_writes_next()))
            .iter()
            .map(|req| mem.earliest_issue_cycle(req))
            .min()
            .unwrap_or(u64::MAX)
    }

    #[test]
    fn enqueue_keeps_the_schedule_bound_below_every_examined_request() {
        // 4-entry queues with a low drain watermark, so enqueues keep flipping
        // which queue FR-FCFS examines; a narrow address range keeps banks busy.
        let mut config = MemoryConfig::small(1024);
        config.read_queue_entries = 4;
        config.write_queue_entries = 4;
        config.write_drain_high = 3;
        config.write_drain_low = 1;
        let mut mem = MemorySystem::new(config);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut id = 0u64;
        let mut skipped_after_enqueue = 0;
        for _ in 0..20_000 {
            let mut enqueued = false;
            // Sparse bursts of 1-4 requests, half of them writes, so the
            // queues fill, drain and empty again.
            let burst = if next() % 24 == 0 { 1 + next() % 4 } else { 0 };
            for _ in 0..burst {
                let addr = (next() % (1 << 22)) & !63;
                let req = if next() % 2 == 0 {
                    MemoryRequest::write(id, addr, 0)
                } else {
                    MemoryRequest::read(id, addr, 0)
                };
                id += 1;
                enqueued |= mem.enqueue(req).is_ok();
            }
            // The next scan is skipped while `cycle + 1 < no_schedule_before`;
            // that is sound only if no examined request can issue that early.
            assert!(
                mem.no_schedule_before.get() <= earliest_examined_issue(&mem),
                "cycle {}: bound {} exceeds an examined request's earliest issue",
                mem.cycle(),
                mem.no_schedule_before.get()
            );
            if enqueued && mem.no_schedule_before.get() > mem.cycle() + 1 {
                skipped_after_enqueue += 1;
            }
            mem.tick();
        }
        assert!(
            skipped_after_enqueue > 0,
            "no enqueue ever kept a scan-skipping bound"
        );
    }

    /// Xorshift64 stream for the seeded randomized tests below.
    struct Xorshift(u64);
    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A defense that answers about one activation in six with a random
    /// preventive action of every kind, aimed at a random bank of the
    /// geometry (now and then at a bank outside it).
    struct EveryAction {
        rng: Xorshift,
        geometry: svard_dram::DramGeometry,
    }
    impl MitigationHook for EveryAction {
        fn on_activation(
            &mut self,
            bank: BankId,
            row: usize,
            cycle: u64,
            out: &mut Vec<PreventiveAction>,
        ) {
            if self.rng.below(6) != 0 {
                return;
            }
            let g = &self.geometry;
            let target = match self.rng.below(8) {
                0 => bank,
                1 => BankId {
                    bank: g.banks_per_group,
                    ..bank
                },
                _ => g
                    .unflatten_bank(self.rng.below(g.total_banks() as u64) as usize)
                    .bank_id(),
            };
            let other = self.rng.below(g.rows_per_bank as u64) as usize;
            out.push(match self.rng.below(5) {
                0 => PreventiveAction::RefreshRow { bank: target, row },
                1 => PreventiveAction::ThrottleRow {
                    bank: target,
                    row: if self.rng.below(2) == 0 { row } else { other },
                    until_cycle: cycle + 20 + self.rng.below(600),
                },
                2 => PreventiveAction::MigrateRow {
                    bank: target,
                    from_row: row,
                    to_row: other,
                },
                3 => PreventiveAction::SwapRows {
                    bank: target,
                    row_a: row,
                    row_b: other,
                },
                _ => PreventiveAction::ExtraTraffic {
                    bank: target,
                    accesses: 1 + self.rng.below(4) as u32,
                },
            });
        }
        fn name(&self) -> &str {
            "every-action"
        }
    }

    /// The tallies recounted by walking both queues.
    fn recount(mem: &MemorySystem) -> (QueueTally, QueueTally) {
        let mut tallies = (
            QueueTally::new(mem.banks.len()),
            QueueTally::new(mem.banks.len()),
        );
        for (queue, tally) in [
            (&mem.read_queue, &mut tallies.0),
            (&mem.write_queue, &mut tallies.1),
        ] {
            for req in queue {
                let (bank, row) = (req.flat_bank, req.dram_addr.row);
                tally.add(bank, row, mem.banks[bank].is_open(row));
            }
        }
        tallies
    }

    /// The per-entry FR-FCFS scan the bank tallies replaced, kept as the
    /// reference: the id it would issue this cycle and the throttle stalls
    /// it would count. Call it where `schedule_one` would run.
    fn reference_pick(mem: &MemorySystem) -> (Option<u64>, u64) {
        let cycle = mem.cycle();
        let mut oldest = None;
        let mut oldest_hit = None;
        let mut stalls = 0;
        for req in mem.queue(mem.writes_selected(mem.draining_writes)) {
            if let Some(until) = mem.throttled.get(req.flat_bank, req.dram_addr.row) {
                if until > cycle {
                    stalls += 1;
                    continue;
                }
            }
            if oldest_hit.is_some() {
                continue;
            }
            let bank = &mem.banks[req.flat_bank];
            let hit =
                bank.is_open(req.dram_addr.row) && bank.consecutive_hits < mem.config.column_cap;
            if mem.earliest_issue_cycle(req) > cycle {
                continue;
            }
            oldest.get_or_insert(req.id);
            if hit {
                oldest_hit = Some(req.id);
            }
        }
        (oldest_hit.or(oldest), stalls)
    }

    /// `next_event_cycle` by brute force: every examined request's earliest
    /// issue cycle (throttles included), in-flight completions and refresh.
    fn reference_next_event(mem: &MemorySystem) -> Option<u64> {
        let floor = mem.cycle() + 1;
        let queued = mem
            .queue(mem.writes_selected(mem.draining_writes_next()))
            .iter()
            .map(|req| {
                let until = mem.throttled.get(req.flat_bank, req.dram_addr.row);
                mem.earliest_issue_cycle(req).max(until.unwrap_or(0))
            });
        let refresh = mem.config.refresh_enabled.then_some(mem.next_refresh);
        let in_flight = mem.in_flight.iter().map(|&(_, due)| due);
        queued
            .chain(refresh)
            .chain(in_flight)
            .map(|c| c.max(floor))
            .min()
    }

    /// Drive `config` with seeded random bursts of reads and writes under
    /// [`EveryAction`], checking after every tick that the tallies match a
    /// recount, `next_event_cycle` matches its brute-force minimum, and the
    /// issued request is the one the per-entry scan picks.
    fn check_tallies_against_scan(mut config: MemoryConfig, seed: u64) {
        config.read_queue_entries = 8;
        config.write_queue_entries = 8;
        config.write_drain_high = 6;
        config.write_drain_low = 2;
        config.column_cap = 3;
        let geometry = config.geometry.clone();
        let mut mem = MemorySystem::with_mitigation(
            config,
            Box::new(EveryAction {
                rng: Xorshift(seed ^ 0x5DEE_CE66),
                geometry: geometry.clone(),
            }),
        );
        let mut rng = Xorshift(seed);
        // A small pool of lines, four per row, so rows repeat and hit.
        let pool: Vec<u64> = (0..24).map(|_| rng.below(1 << 24) & !0xFF).collect();
        let mut id = 0u64;
        let (mut issued, mut stalls_seen) = (0u64, 0u64);
        let mut out = Vec::new();
        for _ in 0..30_000 {
            let burst = if rng.below(6) == 0 {
                1 + rng.below(5)
            } else {
                0
            };
            for _ in 0..burst {
                let addr = pool[rng.below(pool.len() as u64) as usize] + 64 * rng.below(4);
                let req = if rng.below(3) == 0 {
                    MemoryRequest::write(id, addr, 0)
                } else {
                    MemoryRequest::read(id, addr, 0)
                };
                id += 1;
                let _ = mem.enqueue(req);
            }
            assert_eq!(mem.next_event_cycle(), reference_next_event(&mem));

            mem.begin_cycle();
            let (expected, stalls) = reference_pick(&mem);
            let queued = |mem: &MemorySystem| -> Vec<u64> {
                mem.read_queue
                    .iter()
                    .chain(&mem.write_queue)
                    .map(|r| r.id)
                    .collect()
            };
            let before = queued(&mem);
            let stalls_before = mem.stats.throttle_stalls;
            mem.schedule();
            let after = queued(&mem);
            let picked: Vec<u64> = before
                .into_iter()
                .filter(|id| !after.contains(id))
                .collect();
            assert_eq!(picked, Vec::from_iter(expected), "cycle {}", mem.cycle());
            assert_eq!(mem.stats.throttle_stalls - stalls_before, stalls);
            mem.collect_completions(&mut out);

            let (reads, writes) = recount(&mem);
            let cycle = mem.cycle();
            assert_eq!(
                mem.read_tally.canonical(),
                reads.canonical(),
                "reads, cycle {cycle}"
            );
            assert_eq!(
                mem.write_tally.canonical(),
                writes.canonical(),
                "writes, cycle {cycle}"
            );
            issued += picked.len() as u64;
            stalls_seen += stalls;
        }
        let s = mem.stats();
        assert!(issued > 1_000, "only {issued} requests issued");
        assert!(stalls_seen > 0 && s.row_swaps > 0 && s.row_migrations > 0);
        assert!(s.row_hits > 0 && s.preventive_refreshes > 0 && s.extra_accesses > 0);
    }

    #[test]
    fn tallies_match_the_per_entry_scan_on_table4_banks() {
        for seed in [1, 2, 3] {
            check_tallies_against_scan(MemoryConfig::small(256), seed);
        }
    }

    #[test]
    fn tallies_match_the_per_entry_scan_beyond_64_banks() {
        let mut config = MemoryConfig::small(256);
        config.geometry.ranks_per_channel = 3;
        config.geometry.banks_per_group = 6;
        assert_eq!(config.total_banks(), 72);
        for seed in [4, 5] {
            check_tallies_against_scan(config.clone(), seed);
        }
    }
}
