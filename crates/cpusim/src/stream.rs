//! Per-core access streams, filtered through the core's last-level cache once.
//!
//! A core's memory behaviour past its LLC depends only on its workload spec,
//! its core index, the seed and its instruction budget: the trace generator
//! is deterministic, the LLC is private to the core, and the LLC sees the
//! core's accesses in trace order whatever the memory system does. So the
//! LLC's verdict on every access can be computed ahead of the simulation,
//! once, and shared by every run of the same core. This is the
//! `<bubble count> <read addr> [<writeback addr>]` form of trace that
//! Ramulator consumes (Kim, Yang and Mutlu, IEEE CAL 2015).

use crate::cache::{CacheOutcome, LastLevelCache};
use crate::workload::{TraceGenerator, WorkloadSpec};

/// Low-bit flags of [`StreamAccess::line`]; addresses are 64-byte aligned,
/// so the low 6 bits are free.
const WRITE: u64 = 1;
const HIT: u64 = 2;
const WRITEBACK: u64 = 4;
const FLAGS: u64 = 63;

/// One memory access of a [`CoreStream`], in 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamAccess {
    /// The access's line address, with the `WRITE`, `HIT` and `WRITEBACK`
    /// flags in its low bits.
    line: u64,
    /// The dirty victim's address, when `WRITEBACK` is set (0 otherwise).
    writeback: u64,
    /// Non-memory instructions before the access (the generator truncates
    /// them at 10,000).
    gap: u16,
}

impl StreamAccess {
    /// Non-memory instructions before the access.
    pub(crate) fn gap(self) -> u32 {
        u32::from(self.gap)
    }

    /// The accessed line's byte address.
    pub(crate) fn address(self) -> u64 {
        self.line & !FLAGS
    }

    /// Whether the access is a store.
    pub(crate) fn is_write(self) -> bool {
        self.line & WRITE != 0
    }

    /// Whether the access hit the LLC (never, for a core that bypasses it).
    pub(crate) fn is_hit(self) -> bool {
        self.line & HIT != 0
    }

    /// The dirty victim a miss evicted, if any.
    pub(crate) fn writeback(self) -> Option<u64> {
        (self.line & WRITEBACK != 0).then_some(self.writeback)
    }
}

/// One core's trace walked through its LLC an access at a time: what a
/// [`CoreStream`] stores, and what a core without a stored stream reads
/// live. The LLC's verdicts are those of a fresh
/// [`LastLevelCache::table4_per_core`] walked in trace order, or of no cache
/// at all for an adversarial spec, which bypasses the LLC.
#[derive(Debug, Clone)]
pub(crate) struct StreamWalk {
    trace: TraceGenerator,
    llc: Option<LastLevelCache>,
}

impl StreamWalk {
    /// A fresh walk of `spec`'s trace on `core`, seeded by `seed`.
    pub(crate) fn new(spec: &WorkloadSpec, core: usize, seed: u64) -> Self {
        Self {
            trace: TraceGenerator::new(spec, core, seed),
            llc: (!spec.is_adversarial()).then(LastLevelCache::table4_per_core),
        }
    }

    /// Whether the walk bypasses the LLC (an adversarial spec).
    pub(crate) fn bypasses_llc(&self) -> bool {
        self.llc.is_none()
    }

    // lint: hot-path
    /// The trace's next access, with the LLC's verdict on it.
    pub(crate) fn next_access(&mut self) -> StreamAccess {
        let event = self.trace.next_event();
        let mut line = event.address | if event.is_write { WRITE } else { 0 };
        let mut writeback = 0;
        match self
            .llc
            .as_mut()
            .map(|llc| llc.access(event.address, event.is_write))
        {
            Some(CacheOutcome::Hit) => line |= HIT,
            Some(CacheOutcome::Miss {
                writeback: Some(victim),
            }) => {
                line |= WRITEBACK;
                writeback = victim;
            }
            Some(CacheOutcome::Miss { writeback: None }) | None => {}
        }
        StreamAccess {
            line,
            writeback,
            gap: u16::try_from(event.non_mem_instructions).unwrap_or(u16::MAX),
        }
    }
    // lint: end-hot-path
}

/// The LLC-filtered access stream of one core: every access its trace
/// makes within an instruction budget, each with the gap before it and the
/// LLC's verdict (hit, or miss with the dirty victim to write back), as a
/// fresh walk of the trace through the core's LLC gives them.
///
/// The stream covers the budget: its gaps plus accesses reach
/// `instructions`, and one more access follows, the one a core stashes
/// after its last access. A stream depends only on its four inputs, so runs
/// of the same core can share it. It costs 24 bytes an access: benign
/// catalogue specs make roughly 45 accesses per thousand instructions, so
/// about 1.1 MB per core per million instructions, and a spec with no gaps
/// makes one access per instruction, 24 MB per million.
#[derive(Debug, Clone)]
pub struct CoreStream {
    core: usize,
    instructions: u64,
    bypass_llc: bool,
    accesses: Vec<StreamAccess>,
}

impl CoreStream {
    /// Bytes a stream takes per access.
    pub const ACCESS_BYTES: usize = std::mem::size_of::<StreamAccess>();

    /// Walk `spec`'s trace on `core` (seeded by `seed`) through the core's
    /// LLC until it covers `instructions`.
    pub fn generate(spec: &WorkloadSpec, core: usize, seed: u64, instructions: u64) -> Self {
        Self::walk(spec, core, seed, instructions, usize::MAX).0
    }

    /// [`generate`](Self::generate), or `None` if the stream would hold
    /// more than `max_accesses` accesses (the walk stops there).
    pub fn generate_within(
        spec: &WorkloadSpec,
        core: usize,
        seed: u64,
        instructions: u64,
        max_accesses: usize,
    ) -> Option<Self> {
        let (stream, covers) = Self::walk(spec, core, seed, instructions, max_accesses);
        covers.then_some(stream)
    }

    /// The stream, walked until it covers `instructions` or holds
    /// `max_accesses` accesses, and whether it covers them.
    fn walk(
        spec: &WorkloadSpec,
        core: usize,
        seed: u64,
        instructions: u64,
        max_accesses: usize,
    ) -> (Self, bool) {
        let mut walk = StreamWalk::new(spec, core, seed);
        let mut accesses = Vec::new();
        // Instructions covered by the accesses pushed so far, gaps included.
        let mut covered = 0u64;
        let covers = loop {
            if accesses.len() >= max_accesses {
                break false;
            }
            let access = walk.next_access();
            accesses.push(access);
            // The access just pushed is the one stashed after the last.
            if covered >= instructions {
                break true;
            }
            covered += u64::from(access.gap) + 1;
        };
        if covers {
            accesses.shrink_to_fit();
        }
        let stream = Self {
            core,
            instructions,
            bypass_llc: walk.bypasses_llc(),
            accesses,
        };
        (stream, covers)
    }

    /// The core index the stream was generated for.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The instruction budget the stream covers.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The number of accesses the stream holds.
    pub fn access_count(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the core bypasses the LLC (an adversarial spec).
    pub(crate) fn bypasses_llc(&self) -> bool {
        self.bypass_llc
    }

    /// Access `index`, if the stream reaches it.
    pub(crate) fn access(&self, index: usize) -> Option<StreamAccess> {
        self.accesses.get(index).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream a core's live walk produces: a fresh generator and LLC,
    /// one access per event, for as many events as the stream holds.
    fn live_walk(spec: &WorkloadSpec, core: usize, seed: u64, events: usize) -> Vec<StreamAccess> {
        let mut trace = TraceGenerator::new(spec, core, seed);
        let mut llc = LastLevelCache::table4_per_core();
        (0..events)
            .map(|_| {
                let event = trace.next_event();
                let outcome = if spec.is_adversarial() {
                    CacheOutcome::Miss { writeback: None }
                } else {
                    llc.access(event.address, event.is_write)
                };
                let mut line = event.address;
                if event.is_write {
                    line |= WRITE;
                }
                let mut writeback = 0;
                match outcome {
                    CacheOutcome::Hit => line |= HIT,
                    CacheOutcome::Miss { writeback: wb } => {
                        if let Some(victim) = wb {
                            line |= WRITEBACK;
                            writeback = victim;
                        }
                    }
                }
                StreamAccess {
                    line,
                    writeback,
                    gap: event.non_mem_instructions as u16,
                }
            })
            .collect()
    }

    /// Instructions the first `n` accesses of `stream` cover, gaps included.
    fn covered(stream: &CoreStream, n: usize) -> u64 {
        stream.accesses[..n]
            .iter()
            .map(|a| u64::from(a.gap) + 1)
            .sum()
    }

    fn check(spec: &WorkloadSpec, core: usize, seed: u64, instructions: u64) -> CoreStream {
        let stream = CoreStream::generate(spec, core, seed, instructions);
        let n = stream.accesses.len();
        assert_eq!(
            stream.accesses,
            live_walk(spec, core, seed, n),
            "{} on core {core}",
            spec.name
        );
        // The stream ends exactly one access past the one that reaches the
        // budget.
        assert!(n >= 2 || instructions == 0, "{}: {n} accesses", spec.name);
        assert!(covered(&stream, n - 1) >= instructions, "{}", spec.name);
        assert!(
            n < 2 || covered(&stream, n - 2) < instructions,
            "{}: one access too many",
            spec.name
        );
        assert_eq!(stream.bypasses_llc(), spec.is_adversarial());
        stream
    }

    #[test]
    fn streams_match_a_live_cache_walk_for_every_spec() {
        let mut specs = WorkloadSpec::catalogue();
        specs.push(WorkloadSpec::adversarial_hydra());
        specs.push(WorkloadSpec::adversarial_rrs());
        specs.push(WorkloadSpec::zipf(1.0));
        for (i, spec) in specs.iter().enumerate() {
            let stream = check(spec, i % 8, 0x5EED + i as u64, 20_000);
            assert_eq!(stream.instructions(), 20_000);
            assert_eq!(stream.core(), i % 8);
            if spec.is_adversarial() {
                assert!(stream.accesses.iter().all(|a| !a.is_hit()));
            }
        }
    }

    #[test]
    fn long_streams_carry_dirty_writebacks() {
        // At 20k instructions no catalogue spec evicts a dirty line; at 1M
        // mcf's does, so the writeback field is checked against the walk.
        let mcf = WorkloadSpec::catalogue()
            .into_iter()
            .find(|s| s.name == "spec06-mcf-like")
            .expect("mcf is in the catalogue");
        let short = check(&mcf, 0, 1, 20_000);
        assert!(short.accesses.iter().all(|a| a.writeback().is_none()));
        let long = check(&mcf, 3, 1, 1_000_000);
        let writebacks = long.accesses.iter().filter(|a| a.writeback().is_some());
        assert!(writebacks.count() > 0, "no dirty writeback at 1M");
    }

    #[test]
    fn tiny_budgets_still_hold_the_stashed_access() {
        let spec = &WorkloadSpec::catalogue()[0];
        assert_eq!(check(spec, 0, 7, 0).accesses.len(), 1);
        assert_eq!(check(spec, 0, 7, 1).accesses.len(), 2);
        check(spec, 0, 7, 2);
    }

    #[test]
    fn a_capped_walk_keeps_only_streams_that_fit() {
        let spec = &WorkloadSpec::catalogue()[2];
        let full = CoreStream::generate(spec, 1, 9, 50_000);
        let n = full.access_count();
        let fits = CoreStream::generate_within(spec, 1, 9, 50_000, n).expect("fits exactly");
        assert_eq!(fits.accesses, full.accesses);
        assert!(CoreStream::generate_within(spec, 1, 9, 50_000, n - 1).is_none());
    }

    #[test]
    fn an_access_fits_in_24_bytes() {
        const { assert!(CoreStream::ACCESS_BYTES <= 24) };
    }
}
