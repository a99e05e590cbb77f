//! End-to-end and per-layer benchmark of the Svärd reproduction.
//!
//! One command runs one workload (or `all` of them):
//!
//! ```text
//! perfbench --workload fig12_sweep|adversarial_sweep|serve_small_jobs|characterize|all
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! With `--trace 0` a run sets up repeatedly, measures for `--seconds`,
//! checks every output, and ends with one JSON line holding the end-to-end
//! metrics ([`report::END_TO_END`]). With `--trace 1` it instead measures
//! each layer from outside, through the layer's public functions, and the
//! JSON line holds the per-layer metrics ([`report::PER_LAYER`]). Every
//! metric the run measured, workload-specific ones included, is printed
//! above that line as `name value unit`. See `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod characterize;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod sweep;

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use report::Report;

/// How long an untraced run keeps setting up before its first unit of
/// work, so that `setup_s` is taken over many set-ups.
pub const SETUP_WINDOW: Duration = Duration::from_secs(2);

/// Minimum set-ups before an untraced run's first unit, however slow one is.
pub const SETUP_REPS: usize = 5;

/// How often an untraced run times [`reference_work`]: once per this much
/// of the run, so its samples are spread over the run as the work is.
pub const REFERENCE_EVERY: Duration = Duration::from_millis(100);

/// Seconds [`reference_work`] takes at the host speed that untraced times
/// are scaled to (about its median on the 2-vCPU Xeon VM of `BASELINE.md`).
pub const REFERENCE_S: f64 = 0.0011;

/// A fixed piece of CPU work owned by the benchmark, so no change to the
/// program changes its time: hash-map inserts and lookups, a sort and
/// B-tree inserts, the kind of work the simulators do. Other tenants of a
/// shared host slow the benchmark down by tens of percent for spells of
/// seconds to minutes; this work slows down with the simulators (per-sweep
/// correlation 0.9 over six minutes of `adversarial_sweep`), while a
/// register-only loop and pointer chases do not.
pub fn reference_work() -> u64 {
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut map = std::collections::HashMap::new();
    for i in 0..5_000 {
        map.insert(key(i), i);
    }
    let mut sum: u64 = (0..5_000).filter_map(|i| map.get(&key(i))).sum();
    let mut sorted: Vec<u64> = (0..8_000).map(key).collect();
    sorted.sort_unstable();
    sum = sum.wrapping_add(sorted[sorted.len() / 2]);
    let mut tree = std::collections::BTreeMap::new();
    for i in 0..3_000 {
        tree.insert(key(i) >> 48, i);
    }
    sum.wrapping_add(tree.len() as u64)
}

/// Timings of [`reference_work`] across a run, taken between its set-ups,
/// units and, through [`Reference::catch_up`], the parts of a unit.
pub struct Reference {
    state: Mutex<(Vec<f64>, Instant)>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            state: Mutex::new((Vec::new(), Instant::now())),
        }
    }

    /// Time [`reference_work`] once for every [`REFERENCE_EVERY`] that has
    /// passed since it was last timed, and at least `at_least` times.
    fn time(&self, at_least: usize) {
        let Ok(mut state) = self.state.lock() else {
            return;
        };
        let due = state.1.elapsed().as_secs_f64() / REFERENCE_EVERY.as_secs_f64();
        for _ in 0..(due as usize).max(at_least) {
            let start = Instant::now();
            std::hint::black_box(reference_work());
            state.0.push(start.elapsed().as_secs_f64());
            state.1 = Instant::now();
        }
    }

    /// Time [`reference_work`] once for every [`REFERENCE_EVERY`] that has
    /// passed since it was last timed. A unit calls this between its timed
    /// parts, so each sample runs, as in the experiment that chose the work,
    /// right after simulation left the caches and predictors in its state.
    pub fn catch_up(&self) {
        self.time(0);
    }

    /// [`REFERENCE_S`] over the median sample, after one last sample (so a
    /// run shorter than [`REFERENCE_EVERY`] has one).
    fn scale(&self) -> f64 {
        self.time(1);
        let samples = self.state.lock().map(|s| s.0.clone()).unwrap_or_default();
        REFERENCE_S / report::median(&samples)
    }
}

/// What [`measure`] returns.
pub struct Measured<T> {
    /// Median set-up seconds, scaled to the reference speed.
    pub setup_s: f64,
    /// Factor that scales a time taken during the run to the host speed at
    /// which [`reference_work`] takes [`REFERENCE_S`]: [`REFERENCE_S`] over
    /// the median of its timings across the run.
    pub scale: f64,
    /// Every unit's result.
    pub units: Vec<T>,
}

/// The untraced measurement loop every workload shares. It sets the workload
/// up again and again for [`SETUP_WINDOW`] (at least [`SETUP_REPS`] times),
/// then runs `unit` on the latest set-up at least `min_units` times, and
/// again while one more set-up and unit, as long as the last, still end
/// within `seconds` of the first unit's start; every unit after the first
/// runs on a set-up of its own. Each set-up is dropped before the next
/// starts, so only one is ever alive. Between set-ups and units, and where a
/// unit calls [`Reference::catch_up`], [`reference_work`] is timed about
/// every [`REFERENCE_EVERY`].
pub fn measure<S, T>(
    seconds: u64,
    min_units: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut unit: impl FnMut(&S, &Reference) -> Result<T, String>,
) -> Result<Measured<T>, String> {
    let mut setup_s = Vec::new();
    let reference = Reference::new();
    let mut current = None;
    let mut fresh = |current: &mut Option<S>, reference: &Reference| {
        drop(current.take());
        let start = Instant::now();
        let s = setup()?;
        setup_s.push(start.elapsed().as_secs_f64());
        *current = Some(s);
        reference.catch_up();
        Ok::<(), String>(())
    };
    let window = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS || window.elapsed() < SETUP_WINDOW {
        fresh(&mut current, &reference)?;
        reps += 1;
    }
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut units, mut last) = (Vec::new(), Duration::ZERO);
    while units.len() < min_units || Instant::now() + last <= deadline {
        let start = Instant::now();
        if !units.is_empty() {
            fresh(&mut current, &reference)?;
        }
        units.push(unit(current.as_ref().ok_or("no set-up ran")?, &reference)?);
        reference.catch_up();
        last = start.elapsed();
    }
    let scale = reference.scale();
    Ok(Measured {
        setup_s: report::median(&setup_s) * scale,
        scale,
        units,
    })
}

/// Seconds of one unit of work made of parts (a sweep's points, a
/// characterization's steps) with every part at the median of its times
/// across the run's units, given each unit's part times. Brief slowdowns of
/// the host hit some parts of a unit and not others; the per-part median
/// leaves them out.
pub fn typical_parts(units: &[Vec<f64>]) -> f64 {
    let parts = units.iter().map(|u| u.len()).max().unwrap_or(0);
    (0..parts)
        .map(|i| {
            let times: Vec<f64> = units.iter().filter_map(|u| u.get(i).copied()).collect();
            report::median(&times)
        })
        .sum()
}

/// The benchmark's workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "fig12_sweep",
    "adversarial_sweep",
    "serve_small_jobs",
    "characterize",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each untraced run measures for.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Directory for span traces and server state.
    pub out: PathBuf,
}

impl Args {
    /// Parse `--name value` pairs.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            out: PathBuf::from(".bench_out"),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: bad number {value:?}"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?,
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                "--out" => parsed.out = PathBuf::from(&value),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?} or all, not {:?}",
                parsed.workload
            ));
        }
        Ok(parsed)
    }
}

fn trace_path(out: &Path, workload: &str, seed: u64) -> PathBuf {
    out.join(format!("{workload}-seed{seed}.trace.json"))
}

/// Run one named workload and return its report (without the result line).
pub fn run_workload(workload: &str, args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let trace = trace_path(&args.out, workload, seed);
    let mut report = match (workload, args.trace) {
        ("fig12_sweep", false) => sweep::run_plain(&sweep::SweepSpec::fig12(seed), args.seconds)?,
        ("fig12_sweep", true) => sweep::run_traced(&sweep::SweepSpec::fig12(seed), &trace)?,
        ("adversarial_sweep", false) => {
            sweep::run_plain(&sweep::SweepSpec::adversarial(seed), args.seconds)?
        }
        ("adversarial_sweep", true) => {
            sweep::run_traced(&sweep::SweepSpec::adversarial(seed), &trace)?
        }
        ("serve_small_jobs", false) => serve::run_plain(seed, args.seconds, &args.out)?,
        ("serve_small_jobs", true) => serve::run_traced(seed, &args.out, &trace)?,
        ("characterize", false) => characterize::run_plain(seed, args.seconds)?,
        ("characterize", true) => characterize::run_traced(seed, &trace)?,
        _ => return Err(format!("unknown workload {workload:?}")),
    };
    if !args.trace {
        report.set("peak_rss_mb", "MB", report::peak_rss_mb());
        let attempted = report.attempted.max(1) as f64;
        report.set(
            "failed_frac",
            "ratio",
            report.failed.min(report.attempted) as f64 / attempted,
        );
    }
    Ok(report)
}

/// Print a report's table and its closing JSON line; the line is the last
/// thing written to stdout.
pub fn print_report(workload: &str, trace: bool, report: &mut Report) {
    let line = if trace {
        report.result_line(report::PER_LAYER, true)
    } else {
        report.result_line(report::END_TO_END, false)
    };
    print!("# workload {workload}\n{}", report.table());
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_parts_sums_each_parts_median() {
        // Part 0 is slowed in two units; part 1 in one.
        let units = vec![
            vec![5.0, 1.0],
            vec![2.0, 1.0],
            vec![2.0, 4.0],
            vec![6.0, 1.0],
            vec![2.0, 1.0],
        ];
        assert_eq!(typical_parts(&units), 3.0);
        assert_eq!(typical_parts(&units[..2]), 4.5);
        assert_eq!(typical_parts(&[]), 0.0);
    }

    #[test]
    fn measure_scales_setup_by_the_reference() {
        let m = measure(0, 2, || Ok(()), |_, _| Ok(1)).unwrap();
        assert_eq!(m.units, vec![1, 1]);
        assert!(m.scale.is_finite() && m.scale > 0.0);
        assert!(m.setup_s >= 0.0);
    }
}
