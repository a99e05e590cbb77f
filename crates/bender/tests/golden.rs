//! Golden-output regression: pins the absolute output of a small
//! characterization campaign.
//!
//! The other characterization tests check properties (monotone BER curves,
//! `HC_first` against the ground truth), so a change to the chip model or the
//! weak-cell ranking that shifts every result consistently passes them all.
//! This test hashes the `{:?}` rendering of `characterize_bank` (stride 1) and
//! `reverse_engineer_subarrays` on S0, M0 and H1, plus the chip's bitflip
//! counters after each step, and compares it with a constant. If a change is
//! *meant* to alter characterization results, update the constant and say why
//! in the change log.

use svard_bender::{reverse_engineer_subarrays, CharacterizationConfig, TestInfrastructure};
use svard_chip::{ChipConfig, SimChip};
use svard_vulnerability::{ModuleSpec, ProfileGenerator};

/// FNV-1a digest of the campaign below, captured before the weak-cell
/// ranking was computed once per row and cached by the chip.
const GOLDEN_DIGEST: u64 = 0x241c_6719_3008_251b;

const ROWS: usize = 256;
const ROW_BYTES: usize = 128;
const SEED: u64 = 5;

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The chip's two bitflip counters: the cumulative stat and the metric.
fn bitflip_counters(infra: &TestInfrastructure) -> String {
    let chip = infra.chip();
    format!(
        "bitflips_materialized={} chip.bitflips={}\n",
        chip.stats().bitflips_materialized,
        chip.metrics().counter("chip.bitflips")
    )
}

#[test]
fn characterization_matches_the_golden_digest() {
    let config = CharacterizationConfig::paper().with_stride(1);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for label in ["S0", "M0", "H1"] {
        let spec = ModuleSpec::by_label(label).unwrap().scaled(ROWS);
        let profile = ProfileGenerator::new(SEED).generate(&spec, 1);
        let fresh = TestInfrastructure::new(SimChip::new(
            profile,
            ChipConfig::for_characterization(ROW_BYTES),
        ));

        let mut infra = fresh.clone();
        let bank = infra.characterize_bank(0, &config);
        assert_eq!(bank.rows.len(), ROWS);
        assert!(bank.min_hc_first().is_some(), "{label}: no row flipped");
        hash = fnv1a(hash, format!("{label} {bank:?}\n").as_bytes());
        hash = fnv1a(hash, bitflip_counters(&infra).as_bytes());

        let mut infra = fresh.clone();
        let re = reverse_engineer_subarrays(&mut infra, 0, 0, SEED);
        hash = fnv1a(hash, format!("{label} {re:?}\n").as_bytes());
        hash = fnv1a(hash, bitflip_counters(&infra).as_bytes());
    }
    assert_eq!(
        hash, GOLDEN_DIGEST,
        "characterization output changed: digest {hash:#018x}, expected {GOLDEN_DIGEST:#018x}"
    );
}
