//! Provable WMED brackets from static interval analysis.
//!
//! For every weighted-operand value `x`, ternary constant propagation
//! ([`crate::propagate_constants`]) with the remaining inputs unknown
//! yields, per output bit, either a proven constant or "unknown" — i.e. a
//! *fixed-mask set* `S(x)` of output words that is guaranteed to contain
//! every output the circuit can produce for that `x`, whatever the free
//! operands are. The error of any achievable output against the exact
//! value `t` is therefore bracketed by
//!
//! ```text
//!   min_{z ∈ S(x)} |t − z|   ≤   |t − output|   ≤   max_{z ∈ S(x)} |t − z|
//! ```
//!
//! and summing those per-vector brackets with the task's distribution
//! weights (the exact WMED summation of `apx_metrics`) gives a provable
//! `[lo, hi]` interval around the circuit's true WMED. The candidate is
//! never simulated on a full input vector: propagation runs once per
//! weighted value, though the sum still visits every free-operand value
//! (the cost note on [`wmed_bounds_weighted`]).
//!
//! # Soundness contract
//!
//! Three facts make the bracket sound:
//!
//! * the candidate set is an **over-approximation**: ternary propagation
//!   is per-gate exact but path-insensitive, so `S(x)` can only be larger
//!   than the truly achievable set — which widens the bracket, never
//!   narrows it;
//! * signed outputs are compared in **biased** space (`raw ^ top_bit`),
//!   an order isomorphism from two's-complement onto `0..2^n` that maps a
//!   fixed-mask set onto a fixed-mask set, so min/max distances stay
//!   exact integer computations on `u64`;
//! * the only floating-point steps are the final weighted sums — the same
//!   `≤ 2^20`-term f64 accumulation the evaluator itself performs, with
//!   relative error well under `2^-31`. [`WIDEN`] stretches both ends of
//!   the bracket multiplicatively by far more than that, so the returned
//!   interval contains the evaluator's reported WMED *as computed*, not
//!   just the ideal real number.

use crate::propagate_constants;
use apx_arith::{EvalBackend, Operator};
use apx_dist::Pmf;
use apx_gates::Netlist;

/// Relative widening applied to both ends of the bracket to absorb
/// floating-point accumulation differences between this analysis and the
/// exhaustive evaluator (each side's relative rounding error is below
/// `2^-31 ≈ 5e-10`; see the module-level soundness contract).
const WIDEN: f64 = 1e-9;

/// A provable bracket on a circuit's WMED under one distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBounds {
    /// Lower bound: the true WMED is provably `>= wmed_lo`.
    pub wmed_lo: f64,
    /// Upper bound: the true WMED is provably `<= wmed_hi`.
    pub wmed_hi: f64,
}

impl ErrorBounds {
    /// Whether `wmed` lies inside the bracket.
    #[must_use]
    pub fn contains(&self, wmed: f64) -> bool {
        self.wmed_lo <= wmed && wmed <= self.wmed_hi
    }
}

/// Provable WMED bracket of `netlist` as a `width`-bit `op` instance
/// under `pmf` — see the module docs for the algorithm and its soundness
/// contract.
///
/// # Panics
///
/// Panics if `pmf.width() != width`, if the width is unsupported, or if
/// the netlist's arity contradicts the operator contract (the same
/// conditions the exhaustive evaluator rejects).
#[must_use]
pub fn wmed_bounds(
    netlist: &Netlist,
    op: Operator,
    width: u32,
    signed: bool,
    pmf: &Pmf,
) -> ErrorBounds {
    assert_eq!(pmf.width(), width, "PMF width must match the operand width");
    let weights: Vec<f64> = pmf.iter().collect();
    wmed_bounds_weighted(netlist, op, width, signed, &weights)
}

/// [`wmed_bounds`] over a raw weight table (one weight per raw operand
/// encoding), the form `CircuitEvaluator::weights` returns.
///
/// # Cost
///
/// Constant propagation runs once per weighted value `x` of nonzero
/// weight, but the sum then visits every free-operand value of that `x`
/// to compute its exact target: `support × 2^free` vector visits per
/// call. That is 2^16 for a width-8 multiplier under a full-support
/// distribution (~14 ms, release build on an x86-64 host), and 2^32 at
/// width 16 — the enumeration the symbolic backend exists to avoid.
///
/// # Panics
///
/// Same contract as [`wmed_bounds`], with `weights.len() == 2^width` in
/// place of the PMF width check.
#[must_use]
pub fn wmed_bounds_weighted(
    netlist: &Netlist,
    op: Operator,
    width: u32,
    signed: bool,
    weights: &[f64],
) -> ErrorBounds {
    // The width check accepts the symbolic backend's range, the widest
    // evaluable one; see the cost note above before calling this there.
    assert!(
        op.supports_width(width, EvalBackend::Symbolic),
        "operand width {width} outside {op}'s evaluable range"
    );
    let ni = op.num_inputs(width);
    assert_eq!(netlist.num_inputs(), ni, "a width-{width} {op} netlist must have {ni} inputs");
    let out_bits = op.num_outputs(width) as u32;
    assert_eq!(
        netlist.num_outputs(),
        out_bits as usize,
        "a width-{width} {op} netlist must have {out_bits} outputs"
    );
    assert_eq!(weights.len(), 1usize << width, "one weight per raw operand encoding");

    let free = (ni - width as usize) as u32;
    let full: u64 = (1u64 << out_bits) - 1;
    let top_bit: u64 = if signed { 1u64 << (out_bits - 1) } else { 0 };
    let mut inputs: Vec<Option<bool>> = vec![None; ni];
    let (mut lo_sum, mut hi_sum) = (0.0f64, 0.0f64);
    for (x, &weight) in weights.iter().enumerate() {
        if weight == 0.0 {
            continue;
        }
        // The weighted operand occupies enumeration bits `free..ni`,
        // which are netlist inputs `0..width` (LSB first).
        for (i, slot) in inputs.iter_mut().enumerate().take(width as usize) {
            *slot = Some((x >> i) & 1 == 1);
        }
        let vals = propagate_constants(netlist, &inputs);
        let (mut mask, mut val) = (0u64, 0u64);
        for (j, out) in netlist.outputs().iter().enumerate() {
            if let Some(bit) = vals[out.index()] {
                mask |= 1u64 << j;
                if bit {
                    val |= 1u64 << j;
                }
            }
        }
        // Move the candidate set into biased space: flipping the top bit
        // of every member either flips a fixed bit's value or permutes
        // the free combinations — a fixed-mask set either way.
        let bval = val ^ (top_bit & mask);
        let bmin = bval;
        let bmax = bval | (full & !mask);
        let (mut lo_acc, mut hi_acc) = (0u64, 0u64);
        for f in 0..(1u64 << free) {
            let v = ((x as u64) << free) | f;
            let exact = op.exact_value(width, signed, v);
            // Biased target: `interp(raw) + 2^(n-1) = raw ^ top_bit`, and
            // the exact value of a supported operator always fits its
            // output word, so `t` lands in `0..2^out_bits`.
            let t = (exact + top_bit as i64) as u64;
            lo_acc += min_dist(t, mask, bval, full);
            hi_acc += t.abs_diff(bmin).max(t.abs_diff(bmax));
        }
        lo_sum += weight * lo_acc as f64;
        hi_sum += weight * hi_acc as f64;
    }
    let norm = 1.0 / ((1u64 << free) as f64 * (1u64 << out_bits) as f64);
    ErrorBounds {
        wmed_lo: (lo_sum * norm) * (1.0 - WIDEN),
        wmed_hi: (hi_sum * norm) * (1.0 + WIDEN),
    }
}

/// Distance from `t` to the nearest member of the fixed-mask set
/// `{z <= full : z & mask == val}` (exact, in biased/unsigned space).
fn min_dist(t: u64, mask: u64, val: u64, full: u64) -> u64 {
    if t & mask == val {
        return 0;
    }
    let up = succ_in(t, mask, val, full);
    let down = pred_in(t, mask, val, full);
    match (up, down) {
        (Some(u), Some(d)) => (u - t).min(t - d),
        (Some(u), None) => u - t,
        (None, Some(d)) => t - d,
        (None, None) => unreachable!("a fixed-mask set over a nonempty domain is nonempty"),
    }
}

/// Smallest `z >= t` with `z & mask == val` (and `z <= full`), if any.
///
/// Standard successor-in-masked-set construction: either `t` itself
/// qualifies, or the successor raises exactly one currently-zero bit `i`
/// (which must be free or fixed-to-one), keeps `t`'s bits above `i`
/// (which must already satisfy the mask there), and minimizes everything
/// below `i` (free bits to 0, fixed bits to their value). The true
/// successor is the minimum over all valid raise positions.
fn succ_in(t: u64, mask: u64, val: u64, full: u64) -> Option<u64> {
    if t & mask == val {
        return Some(t);
    }
    let mut best: Option<u64> = None;
    let mut bit = 1u64;
    while bit <= full {
        if t & bit == 0 && (mask & bit == 0 || val & bit != 0) {
            let above = full & !(bit | (bit - 1));
            if t & above & mask == val & above {
                let z = (t & above) | bit | (val & (bit - 1));
                best = Some(best.map_or(z, |b| b.min(z)));
            }
        }
        bit <<= 1;
    }
    best
}

/// Largest `z <= t` with `z & mask == val`, via the complement map
/// `z -> z ^ full`, which reverses order and sends the set onto the
/// fixed-mask set with the same mask and complemented values.
fn pred_in(t: u64, mask: u64, val: u64, full: u64) -> Option<u64> {
    succ_in(t ^ full, mask, val ^ mask, full).map(|z| z ^ full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_mask_successor_and_predecessor_are_exact() {
        // Brute-force oracle over every (mask, val, t) of a 5-bit domain.
        let full = 31u64;
        for mask in 0..=full {
            for val in 0..=full {
                if val & !mask != 0 {
                    continue;
                }
                let members: Vec<u64> = (0..=full).filter(|z| z & mask == val).collect();
                assert!(!members.is_empty());
                for t in 0..=full {
                    let up = members.iter().copied().find(|&z| z >= t);
                    let down = members.iter().copied().rev().find(|&z| z <= t);
                    assert_eq!(succ_in(t, mask, val, full), up, "succ t={t} mask={mask} val={val}");
                    assert_eq!(
                        pred_in(t, mask, val, full),
                        down,
                        "pred t={t} mask={mask} val={val}"
                    );
                    let want = members.iter().map(|&z| t.abs_diff(z)).min().unwrap();
                    assert_eq!(min_dist(t, mask, val, full), want);
                }
            }
        }
    }

    #[test]
    fn exact_seed_lower_bound_is_zero() {
        // The exact value is always in the candidate set of an exact
        // circuit, so the lower bound must be exactly zero (the upper
        // bound stays loose: with the free operand unknown, most output
        // bits are unprovable).
        for op in Operator::ALL {
            for signed in [false, true] {
                let width = 3;
                let nl = op.seed_circuit(width, signed);
                let b = wmed_bounds(&nl, op, width, signed, &Pmf::uniform(width));
                assert_eq!(b.wmed_lo, 0.0, "{op} signed={signed}");
                assert!(b.contains(0.0));
                assert!(b.wmed_hi >= 0.0);
            }
        }
    }

    #[test]
    fn fully_determined_outputs_collapse_the_bracket() {
        // A constant-zero "multiplier": every output provably stuck, so
        // lo and hi coincide (up to the deliberate widening) at the
        // analytic WMED of the all-zero circuit.
        let width = 3u32;
        let op = Operator::Mul;
        let mut b = apx_gates::NetlistBuilder::new(op.num_inputs(width));
        let zero = b.const0();
        b.outputs(&vec![zero; op.num_outputs(width)]);
        let nl = b.finish().unwrap();
        let bounds = wmed_bounds(&nl, op, width, false, &Pmf::uniform(width));
        // WMED of the all-zero circuit: sum of weight(a) * |a*b| over the
        // full enumeration, over 2^free * 2^out_bits (weight = 1/8 each).
        let mean: f64 = (0..64u64).map(|v| op.exact_value(width, false, v) as f64).sum::<f64>()
            / 8.0
            / (8.0 * 64.0);
        assert!(bounds.wmed_lo <= mean && mean <= bounds.wmed_hi);
        assert!((bounds.wmed_hi - bounds.wmed_lo) / mean < 1e-8, "{bounds:?}");
    }

    #[test]
    #[should_panic(expected = "must have 8 inputs")]
    fn arity_mismatch_is_rejected() {
        let nl = apx_arith::ripple_carry_adder(3);
        let _ = wmed_bounds(&nl, Operator::Mul, 4, false, &Pmf::uniform(4));
    }

    #[test]
    #[should_panic(expected = "PMF width")]
    fn pmf_width_mismatch_is_rejected() {
        let nl = apx_arith::array_multiplier(4);
        let _ = wmed_bounds(&nl, Operator::Mul, 4, false, &Pmf::uniform(5));
    }
}
