//! Fig. 3: power vs WMED Pareto fronts.
//!
//! Runs the full (distribution × threshold × run) grid — D1, D2 and Du
//! across the paper's 14 WMED targets — through one [`apx_core::run_sweep`]
//! worker pool, cross-evaluates every circuit under all three metrics
//! (reusing the sweep's shared evaluators), adds the truncated and
//! broken-array baselines, and prints one series table per metric panel.
//! CSV mirror: `results/fig3_pareto.csv`.
//!
//! Scale knobs: `APX_ITERS` (default 2000; paper ≈ 10^6), `APX_RUNS`,
//! `APX_CACHE_DIR` (sweep result cache, default `results/cache`),
//! `APX_SHARD` (`i/n` — compute one slice of the grid into the shared
//! cache; a later unsharded run assembles the figure from hits alone),
//! `APX_LIBRARY` (`on`/`full`/a directory — reuse multipliers from a
//! previously populated cache as a component library instead of evolving
//! every task from scratch).
//!
//! Full `APX_*` knob reference: `crates/bench/README.md`.

use apx_arith::{broken_array_multiplier, truncated_multiplier};
use apx_bench::{fig3_sweep_grid, pareto_figure};

fn main() {
    // Baselines: truncated and broken-array multipliers.
    let mut baselines = Vec::new();
    for k in 1..=12u32 {
        baselines.push(("truncated", format!("trunc_{k}"), truncated_multiplier(8, k)));
    }
    for (hbl, vbl) in
        [(8u32, 2u32), (8, 4), (8, 6), (8, 8), (8, 10), (7, 4), (7, 8), (6, 6), (6, 10), (5, 8)]
    {
        let netlist = broken_array_multiplier(8, hbl, vbl);
        baselines.push(("broken-array", format!("bam_h{hbl}_v{vbl}"), netlist));
    }
    pareto_figure("Fig. 3", fig3_sweep_grid, "multipliers", &baselines, "fig3_pareto.csv");
}
