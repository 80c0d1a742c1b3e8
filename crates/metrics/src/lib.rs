//! Error metrics for approximate arithmetic circuits.
//!
//! The paper's contribution is **WMED**, the weighted mean error distance
//! (§III-A): the mean absolute error of an approximate circuit where the
//! distribution operand `x` is weighted by an application-measured
//! probability mass function `D` and the free inputs `y` are uniform
//! (shown here for a multiplier; any [`apx_arith::Operator`] substitutes
//! its reference function and output range):
//!
//! ```text
//! WMED_D(M̃) = E_{x∼D, y∼U}[ |x·y − M̃(x,y)| ] / 2^(2w)   ∈ [0, 1)
//! ```
//!
//! (The normalization by the output range `2^(2w)` keeps the metric in
//! `[0, 1)`; see ARCHITECTURE.md for why the paper's literal formula is
//! adjusted.) With `D` uniform this reduces to the conventional normalized
//! mean error distance, so a single code path serves both the proposed and
//! the baseline metric.
//!
//! Two evaluation surfaces are provided:
//!
//! * [`table_stats`] — metrics over functional [`apx_arith::OpTable`]s
//!   (library multipliers, quick experiments);
//! * [`CircuitEvaluator`] — the CGP hot path: evaluates a gate-level
//!   [`apx_gates::Netlist`] exhaustively, skips zero-probability operand
//!   blocks, visits blocks in decreasing weight order and aborts as soon
//!   as a WMED budget is exceeded ([`CircuitEvaluator::wmed_bounded`]).
//!
//! The evaluator runs on one of three interchangeable [`EvalBackend`]s:
//! the **bit-parallel** engine (tiled 64-lane simulation plus a
//! bit-sliced error kernel; supports incremental re-evaluation of mutated
//! netlists via [`WmedState`]), a **scalar** one-pair-at-a-time reference
//! interpreter, and a **symbolic** ROBDD model-counting engine (built on
//! `apx_bdd`) that never enumerates operand pairs. Past the full-domain
//! enumeration cap (12×12/16×16 multipliers and adders, 8-bit MACs) the
//! evaluation goes one weighted operand row at a time: the bit-parallel
//! engine streams a multiplier's rows through the simulator, the symbolic
//! one model-counts an adder's or MAC's rows. All are bit-identical by
//! construction at the widths they share — the per-block (per-row past
//! the cap) error sums are exact integers and the floating-point
//! accumulation order is shared — so the slower paths serve as
//! independent oracles for property tests. The operator and width pick
//! the backend (`apx_arith::Operator::backend`: bit-parallel for every
//! multiplier and wherever enumeration fits, symbolic for adders and MACs
//! beyond); [`CircuitEvaluator::with_backend`] forces one for
//! cross-checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod evaluator;
mod heatmap;
mod rows;
mod stats;
mod symbolic;

pub use apx_arith::EvalBackend;
pub use evaluator::{CircuitEvaluator, EvaluatorError, WmedState};
pub use heatmap::ErrorMatrix;
pub use stats::{joint_wmed, table_stats, ErrorStats};

use apx_arith::OpTable;
use apx_dist::Pmf;

/// Convenience: WMED of an approximate table against the exact product.
///
/// # Panics
///
/// Panics if the table and PMF widths disagree.
#[must_use]
pub fn wmed_of_table(approx: &OpTable, pmf: &Pmf) -> f64 {
    let exact = OpTable::exact_mul(approx.width(), approx.is_signed());
    table_stats(approx, &exact, pmf).wmed
}

/// Convenience: conventional normalized MED (uniform weighting).
#[must_use]
pub fn med_of_table(approx: &OpTable) -> f64 {
    wmed_of_table(approx, &Pmf::uniform(approx.width()))
}
