//! # distapprox
//!
//! A full reproduction of **“Automated Circuit Approximation Method Driven
//! by Data Distribution”** (Vasicek, Mrazek, Sekanina — DATE 2019) as a
//! Rust workspace: WMED-driven Cartesian-Genetic-Programming circuit
//! approximation, plus every substrate the paper's evaluation needs —
//! gate-level bit-parallel simulation, arithmetic circuit generators, a
//! 45 nm cost model, an image-filter pipeline and a trainable/quantizable
//! neural-network stack.
//!
//! This crate is the facade: it re-exports the component crates under
//! stable names and offers a [`prelude`] for the common experiment
//! vocabulary.
//!
//! ## Quick start
//!
//! Evolve a 4-bit multiplier tailored to a half-normal operand
//! distribution (see `examples/quickstart.rs` for the narrated version):
//!
//! ```
//! use distapprox::prelude::*;
//!
//! let pmf = Pmf::half_normal(4, 3.0);
//! let cfg = FlowConfig {
//!     width: 4,
//!     thresholds: vec![0.01],
//!     iterations: 200,
//!     threads: 1,
//!     activity_blocks: 8,
//!     ..FlowConfig::default()
//! };
//! let result = evolve_circuits(&pmf, &cfg)?;
//! let best = &result.circuits[0];
//! assert!(best.stats.wmed <= 0.01);
//! # Ok::<(), distapprox::core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Deterministic PRNG ([`apx_rng`]).
pub use apx_rng as rng;

/// The scoped parallel map every parallel layer shares ([`apx_pool`]).
pub use apx_pool as pool;

/// Gate-level netlists and bit-parallel simulation ([`apx_gates`]).
pub use apx_gates as gates;

/// Arithmetic circuit generators and functional tables ([`apx_arith`]).
pub use apx_arith as arith;

/// Probability mass functions ([`apx_dist`]).
pub use apx_dist as dist;

/// Error metrics, WMED evaluator ([`apx_metrics`]).
pub use apx_metrics as metrics;

/// 45 nm technology cost model ([`apx_techlib`]).
pub use apx_techlib as techlib;

/// Cartesian Genetic Programming ([`apx_cgp`]).
pub use apx_cgp as cgp;

/// Baseline approximate-multiplier library ([`apx_approxlib`]).
pub use apx_approxlib as approxlib;

/// Image-processing substrate ([`apx_imgproc`]).
pub use apx_imgproc as imgproc;

/// Synthetic digit datasets ([`apx_datasets`]).
pub use apx_datasets as datasets;

/// Neural-network substrate ([`apx_nn`]).
pub use apx_nn as nn;

/// The paper's WMED-driven approximation flow ([`apx_core`]).
pub use apx_core as core;

/// The common experiment vocabulary in one import.
pub mod prelude {
    pub use apx_approxlib::{Family, MultiplierLibrary};
    pub use apx_arith::{
        array_multiplier, baugh_wooley_multiplier, broken_array_multiplier, truncated_multiplier,
        OpTable,
    };
    pub use apx_cgp::{Chromosome, EvolutionConfig, FunctionSet};
    pub use apx_core::{
        cross_wmed, default_thresholds, error_heatmap, evolve_circuits, mac_metrics,
        pareto_indices, run_sweep, table1_thresholds, Eq1Fitness, EvolvedCircuit, FlowConfig,
        FlowResult, Shard, SweepConfig, SweepDist, SweepResult,
    };
    pub use apx_dist::Pmf;
    pub use apx_gates::{Netlist, NetlistBuilder};
    pub use apx_metrics::{table_stats, CircuitEvaluator, ErrorStats};
    pub use apx_rng::Xoshiro256;
    pub use apx_techlib::{area_of, delay_of, estimate_under_pmf, TechLibrary};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        use crate::prelude::*;
        let nl = array_multiplier(2);
        assert_eq!(area_of(&nl, &TechLibrary::unit()), nl.active_gate_count() as f64);
    }
}
