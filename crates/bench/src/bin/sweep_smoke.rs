//! Miniature orchestrator workload: a 4-bit sweep grid that honors the
//! full shard/cache/library knob contract at a fraction of the cost.
//!
//! The figure binaries are the real orchestrator workloads, but their
//! 8-bit grids are too expensive for debug-profile end-to-end tests
//! (spawn shards, kill one, relaunch, assemble, GC). This binary serves
//! the deliberately tiny [`smoke_sweep_grid`] — 2 distributions × 3
//! thresholds × 2 runs at width 4 — through exactly the same plumbing:
//! `APX_CACHE_DIR`, `APX_SHARD`, `APX_LIBRARY`, `APX_ITERS` (default 150
//! here), checkpointing every completed task and assembling warm runs
//! from hits. It doubles as the minimal example of the orchestrator's
//! worker contract: honor the two environment knobs and exit 0 once your
//! slice is covered.
//!
//! Extra knobs for failure-injection tests:
//!
//! * `APX_SMOKE_CRASH_ONCE` — a *sharded* run that has not crashed
//!   before (no marker in the cache directory) computes only a prefix of
//!   its grid, then dies via `abort()`: a deterministic stand-in for a
//!   shard killed mid-grid. The relaunch finds the marker, replays the
//!   prefix from cache and covers the remainder. Unsharded (assembly)
//!   runs ignore the knob.
//! * `APX_OUT_DIR` — where the CSV mirror `sweep_smoke.csv` goes
//!   (default `results/`), so concurrent tests never race on one file.
//!
//! The CSV is derived purely from the sweep entries, so a warm, sharded,
//! resumed or orchestrated run is byte-identical to a cold unsharded one.
//!
//! Full `APX_*` knob reference: `crates/bench/README.md`.

use apx_bench::{
    cache_dir, library_config, out_dir, print_sweep_counters, shard, smoke_sweep_grid,
    sweep_entries_table,
};
use apx_core::run_sweep;

fn main() {
    let mut cfg = smoke_sweep_grid();
    cfg.cache_dir = cache_dir();
    cfg.shard = shard();
    cfg.library = library_config();
    println!(
        "=== sweep_smoke: {} tasks at width {} ({} iterations/run) ===",
        apx_core::grid_keys(&cfg).len(),
        cfg.flow.width,
        cfg.flow.iterations
    );

    // Failure injection: die partway through the shard's first launch.
    let crash = std::env::var("APX_SMOKE_CRASH_ONCE").is_ok_and(|v| !v.is_empty())
        && cfg.shard.is_some()
        && cfg.cache_dir.is_some();
    let marker = cfg
        .cache_dir
        .as_ref()
        .map(|dir| dir.join(format!(".smoke_crashed.{}", cfg.shard.map_or(0, |s| s.index))));
    if crash && marker.as_ref().is_some_and(|m| !m.exists()) {
        let marker = marker.expect("crash implies a cache dir");
        if let Some(parent) = marker.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&marker, b"crashed once\n").expect("write crash marker");
        // A prefix of the grid: same task indices, same keys — whatever
        // this partial pass checkpoints is valid for every other
        // participant.
        cfg.flow.thresholds.truncate(cfg.flow.thresholds.len().div_ceil(2));
        let partial = run_sweep(&cfg).expect("partial sweep");
        eprintln!(
            "sweep_smoke: simulated mid-grid crash after {} checkpointed tasks \
             (APX_SMOKE_CRASH_ONCE)",
            partial.entries.len()
        );
        std::process::abort();
    }

    let result = run_sweep(&cfg).expect("sweep");
    print_sweep_counters(&cfg, &result.stats);

    let path = out_dir().join("sweep_smoke.csv");
    sweep_entries_table(&result.entries).write_csv(&path).expect("write csv");
    println!("CSV written to {}", path.display());
}
