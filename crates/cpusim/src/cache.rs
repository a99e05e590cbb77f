//! A per-core last-level cache model (Table 4: 2 MiB per core).

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; it has been installed. If the evicted victim was dirty,
    /// its address is returned so the core can issue a writeback.
    Miss {
        /// Address of a dirty victim line that must be written back, if any.
        writeback: Option<u64>,
    },
}

impl CacheOutcome {
    /// True for hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Hit and miss counts of a last-level cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcStats {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl LlcStats {
    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits over accesses (0 before the first access).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    last_used: u64,
}

/// A set-associative, write-back, LRU last-level cache.
///
/// Sets are stored in a directly indexed vector (not a hash map): the set index
/// is computed from the address, so every access is one bounds-checked index
/// plus a short way scan — this sits on the per-instruction hot path of the
/// core model.
#[derive(Debug, Clone)]
pub struct LastLevelCache {
    sets: Vec<Vec<Line>>,
    num_sets: u64,
    associativity: usize,
    line_bytes: u64,
    access_counter: u64,
    stats: LlcStats,
}

impl LastLevelCache {
    /// Create a cache of `capacity_bytes` with the given associativity and 64-byte
    /// lines.
    pub fn new(capacity_bytes: u64, associativity: usize) -> Self {
        let line_bytes = 64;
        let num_sets = (capacity_bytes / line_bytes / associativity as u64).max(1);
        Self {
            sets: vec![Vec::new(); num_sets as usize],
            num_sets,
            associativity,
            line_bytes,
            access_counter: 0,
            stats: LlcStats::default(),
        }
    }

    /// The paper's per-core LLC slice: 2 MiB, 16-way.
    pub fn table4_per_core() -> Self {
        Self::new(2 << 20, 16)
    }

    /// Access a byte address; `is_write` marks the installed/updated line dirty.
    pub fn access(&mut self, address: u64, is_write: bool) -> CacheOutcome {
        self.access_counter += 1;
        let line_addr = address / self.line_bytes;
        let set_index = line_addr % self.num_sets;
        let tag = line_addr / self.num_sets;
        let counter = self.access_counter;
        let assoc = self.associativity;
        let set = &mut self.sets[set_index as usize];

        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.last_used = counter;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }

        self.stats.misses += 1;
        let mut writeback = None;
        if set.len() >= assoc {
            // Evict the LRU line.
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_used)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let victim = set.swap_remove(lru);
            if victim.dirty {
                writeback = Some((victim.tag * self.num_sets + set_index) * self.line_bytes);
            }
        }
        set.push(Line {
            tag,
            dirty: is_write,
            last_used: counter,
        });
        CacheOutcome::Miss { writeback }
    }

    /// Hits and misses since creation.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = LastLevelCache::new(1 << 16, 4);
        assert!(!c.access(0x1000, false).is_hit());
        assert!(c.access(0x1000, false).is_hit());
        assert!(c.access(0x1020, false).is_hit(), "same 64B line");
        assert!(!c.access(0x2000, false).is_hit());
    }

    #[test]
    fn capacity_eviction_and_writeback() {
        // 4 KiB, 2-way, 64B lines -> 32 sets; lines that alias to the same set are
        // 32*64 = 2 KiB apart.
        let mut c = LastLevelCache::new(4 << 10, 2);
        let stride = 2048u64;
        assert!(!c.access(0, true).is_hit());
        assert!(!c.access(stride, false).is_hit());
        // Third distinct line in the same set evicts the LRU (the dirty line at 0).
        let out = c.access(2 * stride, false);
        match out {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, Some(0)),
            CacheOutcome::Hit => panic!("expected a miss"),
        }
        // The evicted line now misses again.
        assert!(!c.access(0, false).is_hit());
    }

    #[test]
    fn clean_evictions_produce_no_writeback() {
        let mut c = LastLevelCache::new(4 << 10, 2);
        let stride = 2048u64;
        c.access(0, false);
        c.access(stride, false);
        match c.access(2 * stride, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, None),
            CacheOutcome::Hit => panic!("expected a miss"),
        }
    }

    #[test]
    fn working_set_larger_than_cache_misses_often() {
        let mut c = LastLevelCache::table4_per_core();
        // 8 MiB working set streamed twice through a 2 MiB cache.
        for pass in 0..2 {
            for addr in (0..(8u64 << 20)).step_by(64) {
                c.access(addr, false);
            }
            let _ = pass;
        }
        let rate = c.stats().hit_rate();
        assert!(rate < 0.1, "hit rate = {rate}");
    }

    #[test]
    fn small_working_set_fits() {
        let mut c = LastLevelCache::table4_per_core();
        for _ in 0..4 {
            for addr in (0..(256u64 << 10)).step_by(64) {
                c.access(addr, false);
            }
        }
        let rate = c.stats().hit_rate();
        assert!(rate > 0.7, "hit rate = {rate}");
    }
}
