//! Sweep orchestrator: the overnight-exploration driver.
//!
//! Spawns `APX_ORCH_SHARDS` local shard processes of one figure binary
//! (`APX_ORCH_BIN`: `fig3_pareto`, `fig_adders`, `fig4_heatmaps`,
//! `table1_finetune` or the tiny `sweep_smoke`), all pointed at the
//! shared `APX_CACHE_DIR`,
//! polls the directory for global progress, relaunches any shard that
//! dies (cheap: its finished prefix replays from cache in milliseconds)
//! and, once every shard succeeded, runs the same binary once more
//! *unsharded* — the assembly pass, all cache hits, byte-identical
//! output to a cold unsharded run.
//!
//! With `APX_GC=on` the completed directory is then garbage-collected
//! ([`apx_core::cache::gc_cache_dir`]): the live grid's exact keys plus
//! the per-`(operator, width, signedness)` `(WMED, area)` Pareto set under the
//! grid's distributions survive; dominated historical entries, corrupt
//! files and stale writer temp litter are deleted. `APX_GC=only` skips
//! the grid and just collects — the maintenance pass for a directory
//! whose exploration already finished. The live key set is derived from
//! the *same* grid constructors the binaries themselves use
//! ([`apx_bench::sweep_grid_of`]), under the same scale knobs
//! (`APX_ITERS`, `APX_RUNS`), so run GC with the knobs of the grid you
//! mean to keep. Everything outside that live grid is treated as
//! historical component material: kept only while non-dominated.
//! `table1_finetune` can be orchestrated but not collected — its keys
//! depend on measured NN weight distributions.
//!
//! Scale/supervision knobs: see the table in `apx_bench` (`APX_ITERS`,
//! `APX_RUNS`, `APX_ORCH_SHARDS`, `APX_ORCH_BIN`, `APX_ORCH_RELAUNCHES`,
//! `APX_GC`, `APX_GC_TMP_TTL_SECS`). All other knobs are inherited by
//! the shard processes unchanged.
//!
//! Full `APX_*` knob reference: `crates/bench/README.md`.

use apx_bench::{
    cache_dir, gc_mode, gc_tmp_ttl, orch_bin, orch_relaunches, orch_shards, sweep_grid_of, GcMode,
};
use apx_core::cache::{gc_cache_dir, GcConfig};
use apx_core::grid_keys;
use apx_core::orchestrate::{orchestrate, OrchestratorConfig, OrchestratorEvent};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Binaries the orchestrator knows how to supervise.
const WORKLOADS: &[&str] =
    &["fig3_pareto", "fig_adders", "fig4_heatmaps", "table1_finetune", "sweep_smoke"];

fn main() -> ExitCode {
    let bin = orch_bin();
    if !WORKLOADS.contains(&bin.as_str()) {
        eprintln!("APX_ORCH_BIN=`{bin}`: expected one of {}", WORKLOADS.join(", "));
        return ExitCode::FAILURE;
    }
    let Some(dir) = cache_dir() else {
        eprintln!(
            "orchestration is built on the shared result cache: APX_CACHE_DIR must not be \
             empty/`off`"
        );
        return ExitCode::FAILURE;
    };
    let mode = gc_mode();
    let grid = sweep_grid_of(&bin);
    // Refuse an uncollectable GC request *before* spending hours on the
    // grid, not after the assembly pass.
    if mode != GcMode::Off && grid.is_none() {
        eprintln!(
            "APX_GC: the live grid of {bin} is not statically known (its cache keys depend \
             on measured distributions) — refusing a collection that could evict live entries"
        );
        return ExitCode::FAILURE;
    }
    // Shard processes are siblings of this binary (one target directory).
    let exe = std::env::current_exe().expect("own executable path");
    let program = exe.parent().expect("executable directory").join(&bin);

    if mode != GcMode::Only {
        let shards = orch_shards();
        let expected = grid.as_ref().map(|g| grid_keys(g).len());
        let target = expected.map_or_else(|| "?".to_owned(), |n| n.to_string());
        println!("=== orchestrate: {shards} shards of {bin} over {} ===", dir.display());
        let mut cfg = OrchestratorConfig::new(&program, shards, &dir);
        cfg.max_relaunches = orch_relaunches();
        let outcome = orchestrate(&cfg, |event| match event {
            OrchestratorEvent::Progress { stats, running } => println!(
                "progress: {}/{target} entries ({} corrupt, {} temp litter), {running} shards \
                 running",
                stats.entries, stats.corrupt, stats.tmp_litter
            ),
            OrchestratorEvent::Relaunch { shard, launch } => println!(
                "relaunched shard {shard} (launch {launch}) on its mostly-cached remainder"
            ),
            OrchestratorEvent::GaveUp { shard, launches } => {
                println!("gave up on shard {shard} after {launches} launches");
            }
            OrchestratorEvent::ShardDone { shard } => println!("shard {shard} done"),
        });
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                eprintln!("orchestration failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for s in &report.shards {
            println!(
                "shard {}: {} after {} launch{}",
                s.index,
                if s.succeeded { "ok" } else { "FAILED" },
                s.launches,
                if s.launches == 1 { "" } else { "es" }
            );
        }
        if !report.all_succeeded() {
            eprintln!("orchestration incomplete: a shard exhausted its relaunch budget");
            return ExitCode::FAILURE;
        }
        println!(
            "grid complete: {} intact entries, {} relaunches; assembling (unsharded warm {bin})",
            report.stats.entries, report.relaunches
        );
        // Assembly inherits everything except the shard split; its output
        // is the figure, so stdout passes through.
        let status =
            Command::new(&program).env("APX_CACHE_DIR", &dir).env_remove("APX_SHARD").status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("assembly run failed: {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("cannot spawn assembly run {}: {e}", program.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if mode != GcMode::Off {
        let grid = grid.expect("checked before the grid ran");
        let gc = GcConfig {
            keep: grid_keys(&grid).into_iter().collect(),
            distributions: grid.distributions.iter().map(|d| d.pmf.clone()).collect(),
            threads: grid.flow.threads.max(1),
            // Right after our own grid every writer has exited; a
            // standalone pass grants foreign writers the configured TTL.
            tmp_ttl: if mode == GcMode::After { Duration::ZERO } else { gc_tmp_ttl() },
        };
        match gc_cache_dir(&dir, &gc) {
            Ok(r) => println!(
                "gc: kept {} of {} entries ({} live, {} pareto), evicted {} ({} equiv \
                 duplicates), removed {} corrupt + {} temp litter, freed {} bytes",
                r.kept(),
                r.entries_before,
                r.kept_live,
                r.kept_pareto,
                r.evicted,
                r.collapsed,
                r.corrupt_removed,
                r.tmp_removed,
                r.bytes_freed
            ),
            Err(e) => {
                eprintln!("gc failed on {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
