//! The memory controller: request queues, FR-FCFS scheduling, refresh, and
//! preventive-action execution.
//!
//! # One FR-FCFS scan
//!
//! Each tick, `schedule_one` makes one pass over the queue it examines (the
//! write queue while draining writes or when no read is pending, else the
//! read queue). A request is eligible once its `earliest_issue_cycle` has
//! passed and its row is not throttled. Both queues stay in arrival order, so
//! the oldest eligible row hit is the first one in scan order: with no active
//! throttle it ends the scan. While throttles are active the scan visits every
//! entry, counting one throttle stall per throttled entry per cycle.
//!
//! A fruitless scan records in `no_schedule_before` the earliest cycle at
//! which an unthrottled request could issue, and later ticks skip the scan
//! until then. The bound is read only while the throttle table is empty, so
//! throttled entries never contribute to it.
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

use std::collections::{HashMap, VecDeque};

use svard_obs::{Counter, EventKind, Gauge, Hist, MetricsSnapshot, NoopSink, ObsSink};

use crate::actions::{MitigationHook, NoMitigation, PreventiveAction};
use crate::bank::{BankTiming, RankTiming};
use crate::config::MemoryConfig;
use crate::request::{CompletedRequest, MemoryRequest, RequestKind};
use crate::stats::MemStats;

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
    in_flight: Vec<(MemoryRequest, u64)>,
    /// Earliest completion cycle among `in_flight` (`u64::MAX` when empty); lets
    /// ticks skip the completion drain scan until something can complete.
    in_flight_min_completion: u64,
    throttled: HashMap<(usize, usize), u64>,
    mitigation: Box<dyn MitigationHook>,
    /// Reusable scratch buffer for preventive actions (kept empty between
    /// activations), so the no-action common case never allocates.
    action_scratch: Vec<PreventiveAction>,
    draining_writes: bool,
    next_refresh: u64,
    /// Cycle before which a scheduling scan is known to be fruitless (computed
    /// by the last fruitless scan; lowered by an enqueue into the examined
    /// queue; reset to 0 by an issue, a refresh, or an enqueue that changes
    /// which queue is examined). Lets per-cycle ticking skip the FR-FCFS scan
    /// on cycles where nothing can issue.
    no_schedule_before: u64,
    cycle: u64,
    stats: MemStats,
    sink: S,
}

impl<S: ObsSink> std::fmt::Debug for MemorySystem<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("cycle", &self.cycle)
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
        Self {
            config,
            t,
            migration_cost,
            banks,
            ranks,
            bus_free_at: 0,
            read_queue: VecDeque::new(),
            write_queue: VecDeque::new(),
            in_flight: Vec::new(),
            in_flight_min_completion: u64::MAX,
            throttled: HashMap::new(),
            mitigation,
            action_scratch: Vec::new(),
            draining_writes: false,
            next_refresh,
            no_schedule_before: 0,
            cycle: 0,
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

    /// Name of the installed defense.
    pub fn mitigation_name(&self) -> String {
        self.mitigation.name().to_string()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the read queue can accept another request.
    pub fn can_accept_read(&self) -> bool {
        self.read_queue.len() < self.config.read_queue_entries
    }

    /// Whether the write queue can accept another request.
    pub fn can_accept_write(&self) -> bool {
        self.write_queue.len() < self.config.write_queue_entries
    }

    /// Number of requests currently queued or in flight.
    pub fn outstanding(&self) -> usize {
        self.read_queue.len() + self.write_queue.len() + self.in_flight.len()
    }

    /// Enqueue a request; returns it back if the corresponding queue is full.
    pub fn enqueue(&mut self, mut request: MemoryRequest) -> Result<(), MemoryRequest> {
        let full = match request.kind {
            RequestKind::Read => !self.can_accept_read(),
            RequestKind::Write => !self.can_accept_write(),
        };
        if full {
            return Err(request);
        }
        request.arrival_cycle = self.cycle;
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
            self.no_schedule_before = 0;
        } else if joins_writes == writes_examined {
            self.no_schedule_before = self.no_schedule_before.min(earliest_issue);
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
        self.cycle += 1;
        self.stats.cycles += 1;

        self.maybe_refresh();
        self.update_drain_mode();
        // One scan, compiled per case so the common no-throttle scan carries no
        // throttle-table code: a shared copy simulated attacker mixes about 13%
        // slower on a 2-vCPU x86-64 host.
        if self.throttled.is_empty() {
            self.schedule_one::<false>();
        } else {
            self.schedule_one::<true>();
        }

        // Collect completions (skip the scan entirely while nothing can have
        // completed yet).
        let cycle = self.cycle;
        if cycle < self.in_flight_min_completion {
            return;
        }
        let mut min_remaining = u64::MAX;
        let mut i = 0;
        while i < self.in_flight.len() {
            let Some(&(_, due)) = self.in_flight.get(i) else {
                break;
            };
            if due <= cycle {
                let (req, completion) = self.in_flight.swap_remove(i);
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
            } else {
                min_remaining = min_remaining.min(due);
                i += 1;
            }
        }
        self.in_flight_min_completion = min_remaining;
    }

    /// The next cycle (strictly after the current one) at which ticking could do
    /// anything beyond per-cycle bookkeeping: schedule a request, complete a data
    /// transfer, or fire a periodic refresh. Every tick strictly before the
    /// returned cycle is *dead* — it only advances the cycle counter and the
    /// per-cycle statistics. Returns `None` when the system is fully idle and
    /// refresh is disabled (nothing will ever happen again without an enqueue).
    pub fn next_event_cycle(&self) -> Option<u64> {
        let floor = self.cycle + 1;
        let mut next: Option<u64> = None;
        let mut consider = |candidate: u64| {
            let c = candidate.max(floor);
            next = Some(next.map_or(c, |n: u64| n.min(c)));
        };

        if self.config.refresh_enabled {
            consider(self.next_refresh);
        }
        if self.in_flight_min_completion != u64::MAX {
            consider(self.in_flight_min_completion);
        }
        // Earliest cycle at which FR-FCFS could issue a request from the queue
        // it will examine (after the next tick's drain-mode update).
        let check_throttles = !self.throttled.is_empty();
        if !check_throttles && self.no_schedule_before > self.cycle {
            // The last scheduling scan already proved nothing can issue before
            // this bound (and nothing has invalidated it since).
            if self.no_schedule_before != u64::MAX {
                consider(self.no_schedule_before);
            }
        } else {
            for req in self.queue(self.writes_selected(self.draining_writes_next())) {
                let mut c = self.earliest_issue_cycle(req);
                if check_throttles {
                    if let Some(&until) = self.throttled.get(&(req.flat_bank, req.dram_addr.row)) {
                        c = c.max(until);
                    }
                }
                consider(c);
            }
        }
        next
    }

    /// Advance to `target_cycle` (a no-op if already there), producing exactly the
    /// completions and statistics that ticking cycle by cycle would produce, but
    /// skipping runs of dead cycles in O(1) each.
    pub fn tick_until(&mut self, target_cycle: u64, out: &mut Vec<CompletedRequest>) {
        while self.cycle < target_cycle {
            let next = self
                .next_event_cycle()
                .map_or(target_cycle, |e| e.min(target_cycle));
            if next > self.cycle + 1 {
                self.skip_dead_cycles(next - 1 - self.cycle);
            }
            if self.cycle < target_cycle {
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
            self.next_event_cycle().is_none_or(|e| target_cycle < e),
            "skip_to_cycle target must precede the next event"
        );
        if target_cycle > self.cycle {
            self.skip_dead_cycles(target_cycle - self.cycle);
        }
    }

    /// Run until all queued requests have completed or `max_cycles` elapse; returns
    /// all completions. Fast-forwards over dead cycles; behaviour and statistics are
    /// identical to ticking every cycle.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<CompletedRequest> {
        let mut out = Vec::new();
        let end = self.cycle + max_cycles;
        while self.cycle < end {
            self.tick_into(&mut out);
            if self.outstanding() == 0 {
                break;
            }
            let next = self.next_event_cycle().map_or(end, |e| e.min(end));
            if next > self.cycle + 1 {
                self.skip_dead_cycles(next - 1 - self.cycle);
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
        let start = self.cycle;
        // Settle the drain flag exactly as the first skipped tick would (queue
        // lengths are frozen over the window, so one update settles it for the
        // whole window).
        self.update_drain_mode();
        // `schedule_one` counts one throttle stall per examined throttled request
        // per cycle; account for the stalls the skipped scans would have recorded.
        if !self.throttled.is_empty() {
            let mut stalls = 0;
            for req in self.queue(self.writes_selected(self.draining_writes)) {
                if let Some(&until) = self.throttled.get(&(req.flat_bank, req.dram_addr.row)) {
                    // Ticks at cycles `start+1 ..= start+n` stall while `until > cycle`.
                    let counted_to = until.saturating_sub(1).min(start + n);
                    stalls += counted_to.saturating_sub(start);
                }
            }
            self.stats.throttle_stalls += stalls;
        }
        self.cycle = start + n;
        self.stats.cycles += n;
        if S::ENABLED {
            // Diagnostic only: fast-forward skips exist in event-driven runs
            // but not per-cycle ones, so they live in the `diag.` namespace
            // and the diagnostic trace ring, never the canonical stream.
            self.sink.counter(Counter::DiagMemFfSkips, 1);
            self.sink.observe(Hist::DiagMemSkipSpan, n);
            self.sink.event(start + n, EventKind::FfSkip, n, 0, 0);
        }
    }

    // ------------------------------------------------------------------

    fn maybe_refresh(&mut self) {
        if !self.config.refresh_enabled || self.cycle < self.next_refresh {
            return;
        }
        let t_rfc = self.t.t_rfc;
        for rank in &mut self.ranks {
            rank.begin_refresh_cycles(self.cycle, t_rfc);
        }
        self.stats.refreshes += self.ranks.len() as u64;
        if S::ENABLED {
            self.sink.counter(Counter::MemRefreshFired, 1);
            self.sink.event(
                self.cycle,
                EventKind::RefreshFired,
                self.ranks.len() as u64,
                0,
                0,
            );
        }
        self.mitigation.on_refresh_tick(self.cycle);
        self.next_refresh += self.t.t_refi;
        // Rank state changed; conservatively allow the next scan to re-derive.
        self.no_schedule_before = 0;
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

    /// FR-FCFS: issue the oldest eligible row hit under the column cap, else the
    /// oldest eligible request (see the module docs for the single scan).
    /// `THROTTLES` says whether the throttle table is non-empty.
    fn schedule_one<const THROTTLES: bool>(&mut self) {
        // A previous fruitless scan proved nothing can issue before
        // `no_schedule_before` (and everything since that could enable an
        // earlier issue has lowered or reset the bound). Skipping is only exact
        // with no active throttles, because a scan over throttled requests
        // records per-cycle stall statistics.
        if !THROTTLES && self.cycle < self.no_schedule_before {
            return;
        }
        let cycle = self.cycle;
        let from_writes = self.writes_selected(self.draining_writes);
        let mut oldest: Option<usize> = None;
        let mut oldest_hit: Option<usize> = None;
        // Earliest cycle at which some ineligible request could become
        // schedulable; needed only when nothing is eligible. Throttled entries
        // need no bound: it is read only while the throttle table is empty, and
        // a scan that leaves the table empty has seen no active throttle.
        let mut earliest_candidate = u64::MAX;
        let mut throttle_stalls = 0u64;
        let mut saw_expired_throttle = false;
        for (idx, req) in self.queue(from_writes).iter().enumerate() {
            if THROTTLES {
                if let Some(&until) = self.throttled.get(&(req.flat_bank, req.dram_addr.row)) {
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
            let bank = self.bank_at(req.flat_bank);
            let hit =
                bank.is_open(req.dram_addr.row) && bank.consecutive_hits < self.config.column_cap;
            // Once something is eligible, only a younger row hit can win.
            if oldest.is_some() && !hit {
                continue;
            }
            let issue_at = self.earliest_issue_cycle(req);
            if issue_at > cycle {
                earliest_candidate = earliest_candidate.min(issue_at);
                continue;
            }
            oldest.get_or_insert(idx);
            if hit {
                oldest_hit = Some(idx);
                if !THROTTLES {
                    break;
                }
            }
        }
        self.stats.throttle_stalls += throttle_stalls;
        // Purge expired throttle windows encountered by this scan so stale
        // entries cannot linger in the map forever.
        if saw_expired_throttle {
            self.throttled.retain(|_, &mut until| until > cycle);
        }

        let Some(chosen) = oldest_hit.or(oldest) else {
            self.no_schedule_before = earliest_candidate;
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
        // Issuing changes bank and rank state (and may open a row), which can
        // make other requests schedulable immediately.
        self.no_schedule_before = 0;
        self.issue(req);
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
        let cycle = self.cycle;

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
            let bank = self.bank_at_mut(bank_idx);
            bank.open_row = Some(row);
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
        self.in_flight_min_completion = self.in_flight_min_completion.min(completion);
        self.in_flight.push((req, completion));
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
                    self.throttled.insert((idx, row), until_cycle);
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
                    b.open_row = None;
                    self.stats.row_migrations += 1;
                }
                PreventiveAction::SwapRows { .. } => {
                    let b = self.bank_at_mut(idx);
                    let start = b.ready_cycle.max(act_cycle);
                    b.occupy_until(start + 2 * migration_cost);
                    b.open_row = None;
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
        // Garbage-collect expired throttles occasionally to bound the map (the
        // purge-on-lookup in `schedule_one` keeps entries for scheduled rows from
        // lingering; this sweep catches rows that are never requested again).
        if self.throttled.len() > 4096 {
            let cycle = self.cycle;
            self.throttled.retain(|_, &mut until| until > cycle);
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
        // (no new activation), so the map ends up empty.
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
        let until = mem.throttled[&(g.flatten_bank(&base), base.row)];
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
        // Fast-forward skips are diagnostic: present, but never canonical.
        assert!(kinds.iter().all(|k| *k != "ff_skip"));
        assert!(snap.counter("diag.mem.ff_skips") > 0);
        assert!(!mem.sink().diag_trace().is_empty());
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
        assert_eq!(slow.metrics().counter("diag.mem.ff_skips"), 0);
        assert!(fast.metrics().counter("diag.mem.ff_skips") > 0);
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
                mem.no_schedule_before <= earliest_examined_issue(&mem),
                "cycle {}: bound {} exceeds an examined request's earliest issue",
                mem.cycle,
                mem.no_schedule_before
            );
            if enqueued && mem.no_schedule_before > mem.cycle + 1 {
                skipped_after_enqueue += 1;
            }
            mem.tick();
        }
        assert!(
            skipped_after_enqueue > 0,
            "no enqueue ever kept a scan-skipping bound"
        );
    }
}
