//! The evaluator backend seam: exhaustive-scalar, bit-parallel, symbolic.
//!
//! The enum lives here (rather than in `apx_metrics`, which implements
//! the engines) because the *evaluable width range* of an
//! [`crate::Operator`] depends on the backend: full-domain enumeration is
//! capped by the `2^inputs` state space, while the per-row engines — the
//! symbolic one, and bit-parallel streaming for multipliers — are not.
//! `apx_metrics` re-exports the type, so downstream code keeps importing
//! `apx_metrics::EvalBackend`.

use std::fmt;

/// Which simulation engine a `CircuitEvaluator` runs on.
///
/// All backends produce **bit-identical** results at the widths they
/// share — every per-block (and, past the exhaustive cap, per-row) error
/// sum is an exact integer and the floating-point accumulation order is
/// shared — so the backend is purely a speed/reach trade-off, and the
/// operator and width decide it ([`crate::Operator::backend`]):
///
/// * [`EvalBackend::BitParallel`] runs every exhaustively enumerable
///   width, and multipliers at every width. It walks the nodes in
///   netlist order and simulates 64 operand pairs per gate operation on
///   bit-sliced `u64` words, with bit-sliced error summation. Past the
///   enumeration cap (12×12/16×16 multipliers) it streams only the
///   weighted operand rows, block by block, next to the exact seed
///   circuit, and never builds a table sized by the `2^(2w)` domain;
/// * [`EvalBackend::Symbolic`] runs adders and MACs past the cap (16-bit
///   adders, 8-bit MACs). It never enumerates operand pairs: it builds
///   reduced ordered BDDs of the approximate-vs-exact output difference
///   per weighted operand value and model-counts them. It reaches wide
///   multipliers too, and serves as their test reference, but their BDDs
///   blow up, so streaming is faster there;
/// * [`EvalBackend::Scalar`] interprets the netlist one operand pair at a
///   time. It is orders of magnitude slower and exists as the independent
///   reference implementation that property tests cross-check the fast
///   engines against.
///
/// # Examples
///
/// ```
/// use apx_arith::{EvalBackend, Operator};
///
/// assert_eq!(Operator::Mul.backend(8), EvalBackend::BitParallel);
/// assert_eq!(Operator::Mul.backend(12), EvalBackend::BitParallel);
/// assert_eq!(Operator::Add.backend(12), EvalBackend::Symbolic);
/// assert_eq!(EvalBackend::BitParallel.to_string(), "bitpar");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalBackend {
    /// One operand pair per netlist interpretation (reference path).
    Scalar,
    /// 64 operand pairs per gate op on bit-sliced words.
    BitParallel,
    /// ROBDD model counting; no operand-pair enumeration (wide adders
    /// and MACs).
    Symbolic,
}

impl EvalBackend {
    /// The retired environment variable that once selected the backend.
    /// Nothing reads it: the operator and width pick the backend
    /// ([`crate::Operator::backend`]). The constant stays so callers that
    /// still set the variable keep compiling.
    pub const ENV_VAR: &'static str = "APX_EVAL_BACKEND";

    /// Canonical lowercase name (`"scalar"` / `"bitpar"` / `"symbolic"`),
    /// the spelling reports record.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EvalBackend::Scalar => "scalar",
            EvalBackend::BitParallel => "bitpar",
            EvalBackend::Symbolic => "symbolic",
        }
    }
}

impl fmt::Display for EvalBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}
