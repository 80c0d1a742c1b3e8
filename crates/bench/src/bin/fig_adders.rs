//! Adder companion to Fig. 3: power vs WMED Pareto fronts for evolved
//! approximate *adders*.
//!
//! Runs the full (distribution × threshold × run) grid — D1, D2 and Du
//! across the same 14 WMED targets as Fig. 3, but with
//! [`apx_arith::Operator::Add`] threaded through the whole pipeline —
//! one [`apx_core::run_sweep`] worker pool, exact-replay cache, component
//! library and seeded evolution included. Every circuit is
//! cross-evaluated under all three distributions (reusing the sweep's
//! shared evaluators) and compared against the conventional lower-OR and
//! truncated adder baselines. CSV mirror: `results/fig_adders.csv`.
//!
//! Scale knobs: `APX_ITERS` (default 2000), `APX_RUNS`, `APX_CACHE_DIR`
//! (sweep result cache, default `results/cache` — adder tasks are keyed
//! by operator, so they share a directory with multiplier sweeps without
//! collisions), `APX_SHARD` (`i/n`), `APX_LIBRARY` (`on`/`full`/a
//! directory — `full` ingests the conventional adder designs as library
//! candidates).
//!
//! Full `APX_*` knob reference: `crates/bench/README.md`.

use apx_arith::{lower_or_adder, truncated_adder};
use apx_bench::{fig_adders_sweep_grid, pareto_figure};

fn main() {
    // Baselines: lower-OR and truncated adders (the conventional designs
    // the library's `full` mode also ingests).
    let mut baselines = Vec::new();
    for k in 1..=8u32 {
        baselines.push(("lower-or", format!("loa_{k}"), lower_or_adder(8, k)));
    }
    for k in 1..8u32 {
        baselines.push(("truncated", format!("trunc_add_{k}"), truncated_adder(8, k)));
    }
    pareto_figure("Fig. 3 (adders)", fig_adders_sweep_grid, "adders", &baselines, "fig_adders.csv");
}
