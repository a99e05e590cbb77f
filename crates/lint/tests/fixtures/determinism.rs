//! Determinism fixture: sim-crate file with forbidden inputs and an
//! order-dependent reduction. Expected findings are marked by line.

use std::collections::HashMap;
use std::time::Instant;

pub fn wall_clock() -> Instant {
    Instant::now() // flagged (line 8)
}

pub fn entropy_seed() -> u64 {
    let mut rng = rand::thread_rng(); // flagged (line 12)
    rng.random()
}

pub fn env_input() -> Option<String> {
    std::env::var("SVARD_SEED").ok() // flagged (line 17)
}

pub fn hottest(counts: &HashMap<usize, u64>) -> Option<usize> {
    counts.iter().min_by_key(|(_, &c)| c).map(|(&r, _)| r) // flagged (line 21)
}

pub fn suppressed_clock() -> Instant {
    // lint: allow(determinism) -- fixture: suppressions must silence the rule
    Instant::now()
}

pub fn string_contents_are_skipped() -> &'static str {
    "Instant::now() thread_rng() unsafe"
}

pub fn seeded_table() -> HashMap<usize, u64> {
    HashMap::new() // flagged (line 34)
}

pub fn sized_set() -> std::collections::HashSet<usize> {
    std::collections::HashSet::with_capacity(8) // flagged (line 38)
}

pub fn seedless_table() -> IntMap<usize, u64> {
    IntMap::default()
}
