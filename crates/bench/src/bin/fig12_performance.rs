//! Fig. 12: performance of AQUA, BlockHammer, Hydra, PARA and RRS with and without
//! Svärd, sweeping the worst-case `HC_first` from 4K down to 64, reported as
//! weighted speedup, harmonic speedup and maximum slowdown normalized to the
//! no-defense baseline.
//!
//! Defaults are scaled down (see `DESIGN.md`): pass `--mixes`, `--instructions`,
//! `--rows` and `--hc-values` to scale up towards the paper's configuration.

use svard_bench::*;
use svard_server::{bridge, GridSpec};

fn main() {
    banner("Fig. 12", "defense overheads with and without Svärd");
    let defaults = GridSpec::default();
    // `--threads N` pins the worker count; results and `--trace` output are
    // bit-identical at any count.
    let grid = GridSpec {
        hc_values: or_exit(arg_list_parsed("hc-values", &["4096", "1024", "256", "64"])),
        mixes: arg_usize("mixes", defaults.mixes),
        instructions: arg_u64("instructions", defaults.instructions),
        rows: arg_usize("rows", defaults.rows),
        seed: arg_u64("seed", DEFAULT_SEED),
        workers: arg_usize("threads", 0),
        ..defaults
    };
    or_exit(grid.validate());

    eprintln!(
        "# preparing harness: {} mixes x {} cores x {} instructions",
        grid.mixes, grid.cores, grid.instructions
    );
    // The whole sweep (defense-major, then HC_first, then No Svärd and the
    // S0, M0 and H1 profiles) fans out across cores; the harness seeds every
    // point deterministically, so output order and values match a serial sweep.
    let (harness, points) = bridge::build_harness(&grid);
    if arg_flag("print-config") {
        eprintln!("# Table 4 configuration (scaled): {:?}", harness.config());
    }

    header(&[
        "defense",
        "provider",
        "hc_first",
        "weighted_speedup",
        "harmonic_speedup",
        "max_slowdown",
    ]);
    // `--trace PATH` records every simulation's canonical event stream as
    // JSON lines; the evaluation results are identical either way.
    let results = if let Some(trace_path) = arg_string("trace") {
        let (results, trace) = harness.evaluate_all_traced(&points);
        std::fs::write(&trace_path, &trace).expect("write trace jsonl");
        eprintln!("# wrote {trace_path} ({} bytes)", trace.len());
        results
    } else {
        harness.evaluate_all(&points)
    };
    for point in results {
        row(&[
            point.defense.to_string(),
            point.provider,
            point.hc_first.to_string(),
            fmt(point.normalized.weighted_speedup),
            fmt(point.normalized.harmonic_speedup),
            fmt(point.normalized.max_slowdown),
        ]);
    }
}
