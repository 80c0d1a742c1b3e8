//! Sweep-layer throughput benchmark: the Fig. 3 grid (3 distributions ×
//! 14 WMED targets × `APX_RUNS`) through [`apx_core::run_sweep`], once on
//! the full worker pool and once on a single thread.
//!
//! Prints both runs, checks they are bit-for-bit identical (the pool must
//! not change results, only wall time), and records the numbers in
//! `results/BENCH_sweep.json` so the sweep layer's performance trajectory
//! is tracked from PR to PR.
//!
//! Scale knobs: `APX_ITERS` (default 200), `APX_RUNS` (default 1),
//! `APX_THREADS` (default: available parallelism), `APX_SHARD` (`i/n`),
//! `APX_OP` (`mul`/`add`/`mac` — bench a different operator's grid; the
//! active operator is recorded in the JSON),
//! `APX_LIBRARY` (component-library reuse; counters land in the JSON).
//! Unlike the figure binaries this bench only touches the result cache
//! when `APX_CACHE_DIR` is set explicitly — its purpose is to measure
//! evolution throughput, and a warm cache would measure file reads. The
//! same applies to `APX_LIBRARY`: set it deliberately to measure
//! library-mode throughput (re-scoring instead of evolution), and read
//! the `library_hits`/`seeded_evolutions` counters next to the rate.
//!
//! Full `APX_*` knob reference: `crates/bench/README.md`.

use apx_bench::{
    bench_sweep_json, env_u64, env_usize, explicit_cache_dir, operator, parse_library, results_dir,
    shard, sweep_distributions, BenchGrid,
};
use apx_core::{run_sweep, FlowConfig, SweepConfig, SweepResult, SweepStats};

fn print_stats(label: &str, s: &SweepStats) {
    println!(
        "{label:<14} threads = {:<3} wall = {:>8.3} s   {:>10.0} evaluations/s   \
         cache: {} hits, {} misses   library: {} hits, {} seeded",
        s.threads,
        s.wall_seconds,
        s.evaluations_per_second,
        s.cache_hits,
        s.cache_misses,
        s.library_hits,
        s.seeded_evolutions
    );
}

fn assert_identical(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(
            x.circuit.chromosome, y.circuit.chromosome,
            "{} differs across thread counts",
            x.circuit.name
        );
    }
}

fn main() {
    let iters = env_u64("APX_ITERS", 200);
    let n_runs = env_usize("APX_RUNS", 1);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let multi = env_usize("APX_THREADS", cores);
    let op = operator();
    let width = 8;
    let backend = op.backend(width);
    println!(
        "=== bench_sweep: Fig. 3 grid, {iters} iterations/run, {n_runs} run(s)/level, \
         {backend} backend, {op} operator ===\n"
    );

    let library =
        parse_library(&std::env::var("APX_LIBRARY").unwrap_or_default(), explicit_cache_dir());
    // With a library, the two passes must do identical work: disable the
    // checkpoint cache so the multi-thread pass cannot feed the
    // single-thread pass exact replays through the harvested directory.
    let cache_dir = if library.is_some() { None } else { explicit_cache_dir() };
    let mut cfg = SweepConfig {
        distributions: sweep_distributions(),
        flow: FlowConfig {
            operator: op,
            width,
            signed: false,
            iterations: iters,
            runs_per_threshold: n_runs,
            seed: 0xBE7C,
            threads: multi,
            ..FlowConfig::default()
        },
        cache_dir,
        shard: shard(),
        library,
    };
    let multi_result = run_sweep(&cfg).expect("sweep");
    print_stats("multi-thread", &multi_result.stats);
    cfg.flow.threads = 1;
    // The single-thread reference must re-evolve, not replay what the
    // multi-thread pass just checkpointed. (Library mode is symmetric:
    // both passes consult the same pre-existing directory.)
    cfg.cache_dir = None;
    let single_result = run_sweep(&cfg).expect("sweep");
    print_stats("single-thread", &single_result.stats);
    assert_identical(&multi_result, &single_result);

    let speedup = single_result.stats.wall_seconds / multi_result.stats.wall_seconds.max(1e-9);
    println!("\nspeedup over 1 thread: {speedup:.2}x on {cores} core(s); results bit-identical");

    let grid = BenchGrid {
        distributions: cfg.distributions.len(),
        thresholds: cfg.flow.thresholds.len(),
        runs_per_threshold: n_runs,
    };
    let json = bench_sweep_json(
        grid,
        iters,
        cores,
        backend.name(),
        op,
        &multi_result.stats,
        &single_result.stats,
    );
    let path = results_dir().join("BENCH_sweep.json");
    std::fs::write(&path, json).expect("write BENCH_sweep.json");
    println!("JSON written to {}", path.display());
}
