//! The paper's primary contribution: data-distribution-driven automated
//! circuit approximation.
//!
//! Everything below composes the substrate crates into the method of
//! Vasicek, Mrazek & Sekanina (DATE 2019):
//!
//! * [`Eq1Fitness`] — the fitness function of Eq. 1: minimize circuit
//!   area subject to `WMED_D ≤ E_i`, with early-abort WMED evaluation;
//! * [`evolve_circuits`] / [`FlowConfig`] — the full design flow:
//!   seed CGP with the configured operator's exact design (multiplier,
//!   adder or MAC — [`apx_arith::Operator`]), sweep the 14 target error
//!   levels, repeat runs, and return every evolved circuit with its error
//!   statistics and physical estimate (Fig. 3 / Fig. 6 data) — a
//!   one-distribution [`run_sweep`];
//! * [`run_sweep`] / [`SweepConfig`] — the Pareto sweep driver: the full
//!   `(distribution × threshold × run)` grid on one persistent
//!   [`apx_pool`] worker pool, with each WMED evaluator built once per
//!   distribution and shared across all of its tasks;
//! * [`cache`] — content-addressed persistence of completed sweep tasks:
//!   every finished `(distribution, threshold, run)` task is checkpointed
//!   under a digest of exactly what was computed, so re-runs, interrupted
//!   overnight sweeps and multi-process [`Shard`] splits reuse evolved
//!   circuits instead of re-evolving them;
//! * [`orchestrate`] — the local multi-process supervisor over that
//!   cache: spawn `n` shard processes (`APX_SHARD=i/n` over one
//!   `APX_CACHE_DIR`), poll the shared directory for progress, relaunch
//!   dead shards on their (mostly cached) remainder, and afterwards
//!   garbage-collect with [`cache::gc_cache_dir`] — live-grid keys plus
//!   the per-encoding `(WMED, area)` Pareto set survive, dominated
//!   history and stale temp litter are dropped;
//! * [`library`] — the autoAx-style component library on top of that
//!   cache: harvested evolutions and conventional [`apx_approxlib`]
//!   designs unified as [`library::LibraryEntry`] candidates, indexed by
//!   `(width, signedness)`, re-scored under *new* distributions (one
//!   evaluator pass, no evolution) and consulted by the sweep via
//!   [`LibraryConfig`] — direct hits or CGP population seeding;
//! * [`pareto_indices`] — non-dominated filtering for the trade-off plots;
//! * [`cross_wmed`] / [`error_heatmap`] — cross-distribution evaluation
//!   (the off-diagonal panels of Fig. 3 and the heat maps of Fig. 4);
//! * [`mac_metrics`] — MAC-unit integration and relative PDP/power/area
//!   reporting (Table I columns);
//! * [`nn_flow`] — case-study-2 orchestration: train → quantize → measure
//!   the weight distribution → evaluate candidate multipliers with and
//!   without fine-tuning (Fig. 7, Table I);
//! * [`report`] — aligned text tables and CSV output for the bench
//!   binaries that regenerate every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod error;
mod evaluate;
mod fitness;
mod flow;
pub mod library;
mod mac_report;
pub mod nn_flow;
pub mod orchestrate;
mod pareto;
pub mod report;
mod sweep;

pub use error::CoreError;
pub use evaluate::{cross_wmed, error_heatmap};
pub use fitness::Eq1Fitness;
pub use flow::{
    default_thresholds, evolve_circuits, table1_thresholds, EvolvedCircuit, FlowConfig, FlowResult,
};
pub use mac_report::{mac_metrics, MacMetrics};
pub use orchestrate::{
    orchestrate, OrchestratorConfig, OrchestratorEvent, OrchestratorReport, ShardOutcome,
};
pub use pareto::pareto_indices;
pub use sweep::{
    grid_keys, run_sweep, LibraryConfig, Shard, SweepConfig, SweepDist, SweepEntry, SweepResult,
    SweepStats,
};
