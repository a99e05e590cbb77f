//! The `characterize` workload: the Fig. 5/8 characterization pipeline on
//! the three representative modules (H1, M0, S0) — `characterize_bank` with
//! stride 1 (every row), then `reverse_engineer_subarrays` — driving
//! `bender`, and through it `chip` and `analysis`.

use std::path::Path;
use std::time::Instant;

use svard_bender::{reverse_engineer_subarrays, CharacterizationConfig, TestInfrastructure};
use svard_chip::{ChipConfig, SimChip};
use svard_core::Svard;
use svard_obs::{Profiler, DEFAULT_SPAN_CAPACITY};
use svard_vulnerability::{ModuleSpec, ModuleVulnerabilityProfile, ProfileGenerator};

use crate::report::{self, Report};
use crate::spans;

/// Minimum characterizations per untraced run.
const MIN_ROUNDS: usize = 3;

/// Aggressor on-time of the characterization (the paper's 36 ns).
const T_AGG_ON_NS: f64 = 36.0;

/// Rows per bank of every module: enough for a characterization of the
/// three modules to take about half a second.
const ROWS: usize = 1024;

/// Bytes per row of the simulated chips.
const ROW_BYTES: usize = 128;

/// One module, ready to characterize.
struct Module {
    label: &'static str,
    profile: ModuleVulnerabilityProfile,
    /// Test infrastructure around a fresh chip; every step works on a copy,
    /// so every round starts from the same chip state.
    infra: TestInfrastructure,
}

struct Setup {
    modules: Vec<Module>,
    profile_gen_s: f64,
    core_build_s: f64,
}

fn setup(seed: u64) -> Setup {
    let (mut profile_gen_s, mut core_build_s) = (0.0, 0.0);
    let mut modules = Vec::new();
    for module in ModuleSpec::representative() {
        let start = Instant::now();
        let profile = ProfileGenerator::new(seed).generate(&module.scaled(ROWS), 1);
        profile_gen_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        std::hint::black_box(Svard::build(&profile, 1024, 16));
        core_build_s += start.elapsed().as_secs_f64();
        let infra = TestInfrastructure::new(SimChip::new(
            profile.clone(),
            ChipConfig::for_characterization(ROW_BYTES),
        ));
        modules.push(Module {
            label: module.label,
            profile,
            infra,
        });
    }
    Setup {
        modules,
        profile_gen_s,
        core_build_s,
    }
}

/// What one characterization of every module produced.
#[derive(Default)]
struct RoundOut {
    lines: Vec<String>,
    rows: usize,
    characterize_s: f64,
    reverse_s: f64,
    /// Seconds of each timed step, in order: per module, its
    /// `characterize_bank`, then its `reverse_engineer_subarrays`.
    step_s: Vec<f64>,
    hammer_bursts: u64,
    problems: Vec<String>,
}

/// Characterize every module once, each step on an (untimed) copy of the
/// module's fresh infrastructure, calling `reference`'s
/// [`crate::Reference::catch_up`] between steps.
fn round(
    seed: u64,
    setup: &Setup,
    profiler: &Profiler,
    reference: Option<&crate::Reference>,
) -> RoundOut {
    let config = CharacterizationConfig::paper().with_stride(1);
    let mut out = RoundOut::default();
    for (index, module) in setup.modules.iter().enumerate() {
        let mut infra = module.infra.clone();
        let t0 = profiler.now_us();
        let start = Instant::now();
        let bank = infra.characterize_bank(0, &config);
        let step = start.elapsed().as_secs_f64();
        out.characterize_s += step;
        out.step_s.push(step);
        profiler.record(
            spans::CHARACTERIZE,
            t0,
            profiler.now_us().saturating_sub(t0),
            index as u64,
        );
        out.hammer_bursts += infra.chip().metrics().counter("chip.hammer_bursts");
        if let Some(reference) = reference {
            reference.catch_up();
        }

        let mut infra = module.infra.clone();
        let t0 = profiler.now_us();
        let start = Instant::now();
        let re = reverse_engineer_subarrays(&mut infra, 0, 0, seed);
        let step = start.elapsed().as_secs_f64();
        out.reverse_s += step;
        out.step_s.push(step);
        profiler.record(
            spans::REVERSE,
            t0,
            profiler.now_us().saturating_sub(t0),
            index as u64,
        );
        out.hammer_bursts += infra.chip().metrics().counter("chip.hammer_bursts");
        if let Some(reference) = reference {
            reference.catch_up();
        }

        // Ground truth: a row that flipped within the hammer-count grid has
        // its true HC_first if it is interior; a subarray-boundary row has one
        // aggressor, so its HC_first is never lower.
        let truth = module.profile.bank(0).subarrays();
        for r in &bank.rows {
            let expected = module.profile.hc_first(0, r.row, T_AGG_ON_NS);
            let ok = match r.hc_first {
                None => true,
                Some(_) if truth.is_boundary_row(r.row) => r.hc_first >= expected,
                Some(_) => r.hc_first == expected,
            };
            if !ok {
                out.problems.push(format!(
                    "{} row {}: characterized HC_first {:?}, ground truth {:?}",
                    module.label, r.row, r.hc_first, expected
                ));
            }
            out.lines.push(format!(
                "{},{},{:?},{:?},{:?}",
                module.label, r.row, r.wcdp, r.ber_at_max_hc, r.hc_first
            ));
        }
        if bank.rows.len() != ROWS {
            out.problems.push(format!(
                "{}: characterized {} of {ROWS} rows",
                module.label,
                bank.rows.len(),
            ));
        }
        if re.num_subarrays() == 0 {
            out.problems
                .push(format!("{}: no subarrays inferred", module.label));
        }
        out.lines.push(format!(
            "{},subarrays,{:?},{:?}",
            module.label,
            re.inferred.boundary_rows().collect::<Vec<_>>(),
            re.silhouette_curve
        ));
        out.rows += bank.rows.len();
    }
    out
}

fn describe(seed: u64, setup: &Setup) -> String {
    let labels: Vec<&str> = setup.modules.iter().map(|m| m.label).collect();
    format!(
        "characterize seed {seed}: modules {labels:?}, {ROWS} rows x {ROW_BYTES} bytes, stride 1, \
         paper hammer-count grid and data patterns"
    )
}

/// The untraced run. The rate is that of a characterization with every
/// step at the median of its times (see [`crate::typical_parts`]), scaled
/// to the reference host speed (see [`crate::Measured::scale`]).
pub fn run_plain(seed: u64, seconds: u64) -> Result<Report, String> {
    let mut report = Report::default();
    let profiler = Profiler::disabled();
    let mut rows = 0;
    // Each characterization is checked as soon as it ends and only its step
    // times are kept, so memory does not grow with the number of rounds.
    let measured = crate::measure(
        seconds,
        MIN_ROUNDS,
        || Ok(setup(seed)),
        |s, reference| {
            if report.digest.is_none() {
                report.note(describe(seed, s));
            }
            let r = round(seed, s, &profiler, Some(reference));
            report.attempted += r.rows as u64;
            for problem in r.problems {
                report.problem(problem);
            }
            report.check_repeat(report::digest(r.lines.iter().map(String::as_str)));
            rows = r.rows;
            Ok(r.step_s)
        },
    )?;
    report.set("setup_s", "s", measured.setup_s);
    report.note(format!(
        "{} characterizations measured, host time x {:.3} to reference speed",
        measured.units.len(),
        measured.scale
    ));
    let items = rows as f64 / (crate::typical_parts(&measured.units) * measured.scale);
    report.set("items_per_s", "1/s", items);
    report.set("rows_per_s", "1/s", items);
    Ok(report)
}

/// The traced run: one untraced characterization (the digest and overhead
/// reference), then one with spans around each `bender` call.
pub fn run_traced(seed: u64, trace_path: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let profiler = Profiler::new(DEFAULT_SPAN_CAPACITY);
    let t0 = profiler.now_us();
    let setup = setup(seed);
    profiler.record(spans::SETUP, t0, profiler.now_us().saturating_sub(t0), 0);
    report.note(describe(seed, &setup));
    report.set("vulnerability.profile_gen_s", "s", setup.profile_gen_s);
    report.set("core.build_s", "s", setup.core_build_s);

    let plain = round(seed, &setup, &Profiler::disabled(), None);
    let traced = round(seed, &setup, &profiler, None);
    report.attempted += (plain.rows + traced.rows) as u64;
    // The traced run's output must repeat the untraced run's.
    report.check_repeat(report::digest(plain.lines.iter().map(String::as_str)));
    report.check_repeat(report::digest(traced.lines.iter().map(String::as_str)));
    for problem in plain.problems.into_iter().chain(traced.problems) {
        report.problem(problem);
    }
    let plain_s = plain.characterize_s + plain.reverse_s;
    report.set(
        "trace.overhead_ratio",
        "ratio",
        (traced.characterize_s + traced.reverse_s) / plain_s,
    );
    report.set("bender.rows_characterized", "count", traced.rows as f64);
    report.set("bender.characterize_s", "s", traced.characterize_s);
    report.set("analysis.reverse_engineer_s", "s", traced.reverse_s);
    report.set("chip.hammer_bursts", "count", traced.hammer_bursts as f64);
    spans::write_chrome_trace(&profiler, trace_path, &mut report)?;
    Ok(report)
}
