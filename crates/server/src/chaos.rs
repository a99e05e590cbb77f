//! Deterministic chaos injection: seeded, counter-based fault scheduling.
//!
//! A [`FaultPlan`] decides, at explicit seams in the serving path, whether to
//! inject a fault: dropping a connection, delaying (and splitting) a socket
//! write, failing or tearing a journal append, or panicking an executor. Every
//! decision is a pure function of `(seed, site, poll_counter)` through a
//! SplitMix64 finalizer — no wall clock, no OS entropy — so a chaos run is
//! replayable: the same request interleaving makes the same faults fire at
//! the same polls. Per-site *budgets* bound the total number of injections,
//! which is what lets a chaos soak provably converge: once the budget is
//! spent the plan goes quiet and retrying clients finish clean.
//!
//! Chaos lives strictly in this `non_sim` crate. Simulation results are never
//! touched — faults only ever hit the transport and durability layers, whose
//! recovery paths (journal replay, torn-line repair, client retry) must
//! reconstruct byte-identical output.

use std::sync::atomic::{AtomicU64, Ordering};

/// The seams where a [`FaultPlan`] may inject a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Drop the TCP connection instead of writing a response line.
    ConnDrop,
    /// Split a response line into a short write, a delay, and the remainder.
    WriteDelay,
    /// Fail a journal append before any byte reaches the file (named for
    /// the fsync it stands in for; the journal itself never calls `fsync`).
    FsyncFail,
    /// Write only a prefix of a journal line (no newline), then fail.
    TornWrite,
    /// Panic inside the executor while a point completes.
    ExecPanic,
}

/// All injectable sites, in [`ChaosRates`] field order.
pub const ALL_SITES: [FaultSite; 5] = [
    FaultSite::ConnDrop,
    FaultSite::WriteDelay,
    FaultSite::FsyncFail,
    FaultSite::TornWrite,
    FaultSite::ExecPanic,
];

impl FaultSite {
    /// Stable per-site salt mixed into the PRNG so sites draw independent
    /// streams from the same seed.
    fn salt(self) -> u64 {
        match self {
            FaultSite::ConnDrop => 0x1000_0001,
            FaultSite::WriteDelay => 0x2000_0002,
            FaultSite::FsyncFail => 0x3000_0003,
            FaultSite::TornWrite => 0x4000_0004,
            FaultSite::ExecPanic => 0x5000_0005,
        }
    }

    /// The spelling used in `--chaos-rates` specs.
    pub fn key(self) -> &'static str {
        match self {
            FaultSite::ConnDrop => "drop",
            FaultSite::WriteDelay => "delay",
            FaultSite::FsyncFail => "fsync",
            FaultSite::TornWrite => "torn",
            FaultSite::ExecPanic => "panic",
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function. Public so the
/// client's backoff jitter can share the same deterministic stream shape.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Injection rate and budget for one fault site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteRate {
    /// Probability in `[0, 1]` that a poll of this site fires.
    pub rate: f64,
    /// Maximum number of injections; `u64::MAX` means unlimited.
    pub budget: u64,
}

impl SiteRate {
    /// A silent site.
    pub const OFF: SiteRate = SiteRate {
        rate: 0.0,
        budget: 0,
    };

    /// An unlimited-budget rate.
    pub fn of(rate: f64) -> SiteRate {
        SiteRate {
            rate,
            budget: u64::MAX,
        }
    }

    /// A rate capped at `budget` total injections.
    pub fn capped(rate: f64, budget: u64) -> SiteRate {
        SiteRate { rate, budget }
    }
}

/// Per-site injection configuration, parsed from a `--chaos-rates` spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRates {
    /// Connection drops before a response write.
    pub drop: SiteRate,
    /// Delayed + short socket writes.
    pub delay: SiteRate,
    /// Failed journal appends (nothing written).
    pub fsync: SiteRate,
    /// Torn journal writes (prefix written, no newline).
    pub torn: SiteRate,
    /// Injected executor panics.
    pub panic: SiteRate,
}

impl Default for ChaosRates {
    /// Modest default mix used when `--chaos SEED` is given without
    /// `--chaos-rates`: every seam fires occasionally, none dominates.
    fn default() -> Self {
        ChaosRates {
            drop: SiteRate::of(0.05),
            delay: SiteRate::of(0.10),
            fsync: SiteRate::of(0.03),
            torn: SiteRate::of(0.02),
            panic: SiteRate::of(0.03),
        }
    }
}

impl ChaosRates {
    /// Every site silent (useful as a base for targeted plans in tests).
    pub const QUIET: ChaosRates = ChaosRates {
        drop: SiteRate::OFF,
        delay: SiteRate::OFF,
        fsync: SiteRate::OFF,
        torn: SiteRate::OFF,
        panic: SiteRate::OFF,
    };

    /// Parse a spec like `drop=0.1,delay=0.05:8,fsync=0.02,torn=0.01,panic=0.03:2`.
    ///
    /// Each entry is `site=rate` or `site=rate:budget`; omitted sites stay at
    /// the default mix. Rates must be in `[0, 1]`.
    pub fn parse(spec: &str) -> Result<ChaosRates, String> {
        let mut rates = ChaosRates::default();
        for entry in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("chaos rate entry {entry:?} is not site=rate"))?;
            let (rate_str, budget) = match value.split_once(':') {
                Some((r, b)) => (
                    r,
                    b.parse::<u64>()
                        .map_err(|_| format!("bad chaos budget {b:?}"))?,
                ),
                None => (value, u64::MAX),
            };
            let rate: f64 = rate_str
                .parse()
                .map_err(|_| format!("bad chaos rate {rate_str:?}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("chaos rate {rate} out of [0, 1]"));
            }
            let site = SiteRate { rate, budget };
            match key.trim() {
                "drop" => rates.drop = site,
                "delay" => rates.delay = site,
                "fsync" => rates.fsync = site,
                "torn" => rates.torn = site,
                "panic" => rates.panic = site,
                other => return Err(format!("unknown chaos site {other:?}")),
            }
        }
        Ok(rates)
    }

    fn site(&self, site: FaultSite) -> SiteRate {
        match site {
            FaultSite::ConnDrop => self.drop,
            FaultSite::WriteDelay => self.delay,
            FaultSite::FsyncFail => self.fsync,
            FaultSite::TornWrite => self.torn,
            FaultSite::ExecPanic => self.panic,
        }
    }
}

#[derive(Debug)]
struct SiteState {
    /// Fire when `mix64(seed ^ salt ^ poll) < threshold`. A `rate` of 1.0
    /// maps to `u64::MAX` and a dedicated always-fire check.
    threshold: u64,
    always: bool,
    budget: AtomicU64,
    polls: AtomicU64,
    fired: AtomicU64,
}

/// A seeded, counter-based fault schedule shared by every server thread.
///
/// Each seam polls its site with [`FaultPlan::fire`]; the decision consumes
/// one tick of that site's poll counter, so decisions are independent of
/// thread interleaving *given the same per-site poll order*. Budgets are
/// decremented atomically; once exhausted the site never fires again.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    sites: [SiteState; 5],
}

impl FaultPlan {
    /// Build a plan from a seed and per-site rates.
    pub fn new(seed: u64, rates: ChaosRates) -> FaultPlan {
        let state = |site: FaultSite| {
            let s = rates.site(site);
            SiteState {
                threshold: if s.rate >= 1.0 {
                    u64::MAX
                } else {
                    (s.rate * (u64::MAX as f64)) as u64
                },
                always: s.rate >= 1.0,
                budget: AtomicU64::new(s.budget),
                polls: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            }
        };
        FaultPlan {
            seed,
            sites: [
                state(FaultSite::ConnDrop),
                state(FaultSite::WriteDelay),
                state(FaultSite::FsyncFail),
                state(FaultSite::TornWrite),
                state(FaultSite::ExecPanic),
            ],
        }
    }

    /// The plan's seed (echoed in logs so a chaos run can be replayed).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn site(&self, site: FaultSite) -> &SiteState {
        let [drops, delays, fsyncs, torns, panics] = &self.sites;
        match site {
            FaultSite::ConnDrop => drops,
            FaultSite::WriteDelay => delays,
            FaultSite::FsyncFail => fsyncs,
            FaultSite::TornWrite => torns,
            FaultSite::ExecPanic => panics,
        }
    }

    /// Poll a site: returns `true` if a fault should be injected now. One
    /// call consumes one poll-counter tick whether or not it fires.
    pub fn fire(&self, site: FaultSite) -> bool {
        let s = self.site(site);
        let poll = s.polls.fetch_add(1, Ordering::Relaxed);
        if s.threshold == 0 {
            return false;
        }
        let hit = s.always || mix64(self.seed ^ site.salt() ^ poll) < s.threshold;
        if !hit {
            return false;
        }
        // Consume budget; a site with no budget left never fires.
        let mut left = s.budget.load(Ordering::Relaxed);
        loop {
            if left == 0 {
                return false;
            }
            if left == u64::MAX {
                break; // unlimited: no decrement
            }
            match s.budget.compare_exchange_weak(
                left,
                left - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => left = now,
            }
        }
        s.fired.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// How many times a site has fired so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.site(site).fired.load(Ordering::Relaxed)
    }

    /// How many times a site has been polled so far.
    pub fn polls(&self, site: FaultSite) -> u64 {
        self.site(site).polls.load(Ordering::Relaxed)
    }

    /// A deterministic write-delay duration in milliseconds (1..=20) for the
    /// `n`-th delayed write — bounded so chaos slows the stream without
    /// wedging it past the client's read deadline.
    pub fn delay_ms(&self, n: u64) -> u64 {
        1 + mix64(self.seed ^ FaultSite::WriteDelay.salt().rotate_left(17) ^ n) % 20
    }

    /// Byte length of the surviving prefix for a torn write of `len` bytes:
    /// at least 1 and strictly less than `len` (so the tear is visible).
    pub fn torn_prefix_len(&self, n: u64, len: usize) -> usize {
        if len <= 1 {
            return len;
        }
        1 + (mix64(self.seed ^ FaultSite::TornWrite.salt().rotate_left(29) ^ n) as usize)
            % (len - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed_and_counter() {
        let rates = ChaosRates {
            drop: SiteRate::of(0.5),
            ..ChaosRates::QUIET
        };
        let a = FaultPlan::new(7, rates);
        let b = FaultPlan::new(7, rates);
        let fires_a: Vec<bool> = (0..256).map(|_| a.fire(FaultSite::ConnDrop)).collect();
        let fires_b: Vec<bool> = (0..256).map(|_| b.fire(FaultSite::ConnDrop)).collect();
        assert_eq!(fires_a, fires_b);
        assert!(fires_a.iter().any(|&f| f), "rate 0.5 fires somewhere");
        assert!(!fires_a.iter().all(|&f| f), "rate 0.5 misses somewhere");
        let c = FaultPlan::new(8, rates);
        let fires_c: Vec<bool> = (0..256).map(|_| c.fire(FaultSite::ConnDrop)).collect();
        assert_ne!(fires_a, fires_c, "different seeds differ");
    }

    #[test]
    fn budget_caps_total_injections() {
        let rates = ChaosRates {
            panic: SiteRate::capped(1.0, 3),
            ..ChaosRates::QUIET
        };
        let plan = FaultPlan::new(1, rates);
        let fired = (0..100).filter(|_| plan.fire(FaultSite::ExecPanic)).count();
        assert_eq!(fired, 3);
        assert_eq!(plan.fired(FaultSite::ExecPanic), 3);
        assert_eq!(plan.polls(FaultSite::ExecPanic), 100);
    }

    #[test]
    fn quiet_sites_never_fire_and_rate_one_always_fires() {
        let plan = FaultPlan::new(3, ChaosRates::QUIET);
        assert!((0..64).all(|_| !plan.fire(FaultSite::FsyncFail)));
        let noisy = FaultPlan::new(
            3,
            ChaosRates {
                torn: SiteRate::of(1.0),
                ..ChaosRates::QUIET
            },
        );
        assert!((0..64).all(|_| noisy.fire(FaultSite::TornWrite)));
    }

    #[test]
    fn rates_parse_with_budgets_and_reject_nonsense() {
        let rates = ChaosRates::parse("drop=0.25,panic=1.0:2, torn=0.5:7").unwrap();
        assert_eq!(rates.drop, SiteRate::of(0.25));
        assert_eq!(rates.panic, SiteRate::capped(1.0, 2));
        assert_eq!(rates.torn, SiteRate::capped(0.5, 7));
        assert_eq!(
            rates.fsync,
            ChaosRates::default().fsync,
            "omitted = default"
        );
        assert!(ChaosRates::parse("drop=2.0").is_err());
        assert!(ChaosRates::parse("warp=0.1").is_err());
        assert!(ChaosRates::parse("drop").is_err());
        assert!(ChaosRates::parse("drop=0.1:x").is_err());
        assert_eq!(ChaosRates::parse("").unwrap(), ChaosRates::default());
    }

    #[test]
    fn delay_and_torn_helpers_stay_in_bounds() {
        let plan = FaultPlan::new(9, ChaosRates::default());
        for n in 0..200 {
            let d = plan.delay_ms(n);
            assert!((1..=20).contains(&d), "delay {d}");
            let p = plan.torn_prefix_len(n, 100);
            assert!((1..100).contains(&p), "prefix {p}");
        }
        assert_eq!(plan.torn_prefix_len(0, 1), 1);
        assert_eq!(plan.torn_prefix_len(0, 0), 0);
    }
}
