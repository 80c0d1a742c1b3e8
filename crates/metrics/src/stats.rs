//! Aggregate error statistics of an approximate operator.

use apx_arith::OpTable;
use apx_dist::Pmf;

/// Error statistics of an approximate operator against its exact
/// reference, under a distribution `D` on the first operand.
///
/// All `*norm*`-style quantities are normalized by the output range
/// `2^(2w)`, matching the percentage scale the paper reports (e.g.
/// `WMED = 0.5 %` means `wmed == 0.005`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Conventional normalized mean error distance (uniform operands).
    pub med: f64,
    /// Weighted mean error distance under `D` (the paper's metric).
    pub wmed: f64,
    /// Normalized worst-case error over all input pairs.
    pub wce: f64,
    /// Fraction of input pairs with a non-zero error.
    pub error_rate: f64,
    /// Mean relative error distance (error / max(1, |exact|), uniform).
    /// `NaN` from `CircuitEvaluator::stats` past the exhaustive width cap:
    /// the per-row engines there produce sums of exact per-row integers,
    /// and the mean relative error is not one of them.
    pub mred: f64,
    /// Largest absolute error in output LSBs (un-normalized WCE).
    pub max_abs_error: i64,
}

impl ErrorStats {
    /// WMED as a percentage (the unit used throughout the paper).
    #[must_use]
    pub fn wmed_percent(&self) -> f64 {
        self.wmed * 100.0
    }

    /// MED as a percentage.
    #[must_use]
    pub fn med_percent(&self) -> f64 {
        self.med * 100.0
    }
}

/// Computes [`ErrorStats`] of `approx` against `exact` with distribution
/// `pmf` on the first operand (the second operand is uniform).
///
/// # Panics
///
/// Panics if the tables or the PMF have mismatched widths.
#[must_use]
pub fn table_stats(approx: &OpTable, exact: &OpTable, pmf: &Pmf) -> ErrorStats {
    assert_eq!(approx.width(), exact.width(), "table width mismatch");
    assert_eq!(approx.width(), pmf.width(), "pmf width mismatch");
    let w = approx.width();
    let n = 1u64 << w;
    let range = (1u64 << (2 * w)) as f64;
    let mut sum_abs = 0.0f64;
    let mut sum_weighted = 0.0f64;
    let mut sum_rel = 0.0f64;
    let mut nonzero = 0u64;
    let mut max_abs = 0i64;
    for a_raw in 0..n {
        let weight = pmf.prob(a_raw as usize);
        let mut row_abs = 0.0f64;
        for b_raw in 0..n {
            let e = exact.get_raw(a_raw, b_raw);
            let g = approx.get_raw(a_raw, b_raw);
            let err = (g - e).abs();
            if err != 0 {
                nonzero += 1;
            }
            max_abs = max_abs.max(err);
            let err_f = err as f64;
            row_abs += err_f;
            sum_rel += err_f / (e.abs().max(1) as f64);
        }
        sum_abs += row_abs;
        sum_weighted += weight * row_abs;
    }
    let total = (n * n) as f64;
    ErrorStats {
        med: sum_abs / total / range,
        wmed: sum_weighted / n as f64 / range,
        wce: max_abs as f64 / range,
        error_rate: nonzero as f64 / total,
        mred: sum_rel / total,
        max_abs_error: max_abs,
    }
}

/// Generalized WMED with *joint* operand weighting `α(i,j) = D_A(i)·D_B(j)`
/// — the "different approach" the paper's §III-A explicitly allows for the
/// weights. Returns the weighted mean absolute error normalized by the
/// output range `2^(2w)`.
///
/// With `pmf_b` uniform this reduces exactly to [`table_stats`]'s `wmed`.
///
/// # Panics
///
/// Panics if the tables or PMFs have mismatched widths.
#[must_use]
pub fn joint_wmed(approx: &OpTable, exact: &OpTable, pmf_a: &Pmf, pmf_b: &Pmf) -> f64 {
    assert_eq!(approx.width(), exact.width(), "table width mismatch");
    assert_eq!(approx.width(), pmf_a.width(), "pmf_a width mismatch");
    assert_eq!(approx.width(), pmf_b.width(), "pmf_b width mismatch");
    let w = approx.width();
    let n = 1u64 << w;
    let range = (1u64 << (2 * w)) as f64;
    let mut sum = 0.0f64;
    for a_raw in 0..n {
        let wa = pmf_a.prob(a_raw as usize);
        if wa == 0.0 {
            continue;
        }
        for b_raw in 0..n {
            let wb = pmf_b.prob(b_raw as usize);
            if wb == 0.0 {
                continue;
            }
            let err = (approx.get_raw(a_raw, b_raw) - exact.get_raw(a_raw, b_raw)).abs();
            sum += wa * wb * err as f64;
        }
    }
    sum / range
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_arith::{broken_array_multiplier, truncated_multiplier};

    fn table_of(nl: &apx_gates::Netlist, w: u32) -> OpTable {
        OpTable::from_netlist(nl, w, false).unwrap()
    }

    #[test]
    fn exact_operator_has_zero_errors() {
        let exact = OpTable::exact_mul(4, false);
        let s = table_stats(&exact, &exact, &Pmf::uniform(4));
        assert_eq!(s.med, 0.0);
        assert_eq!(s.wmed, 0.0);
        assert_eq!(s.wce, 0.0);
        assert_eq!(s.error_rate, 0.0);
        assert_eq!(s.mred, 0.0);
        assert_eq!(s.max_abs_error, 0);
    }

    #[test]
    fn uniform_wmed_equals_med() {
        let approx = table_of(&truncated_multiplier(4, 4), 4);
        let exact = OpTable::exact_mul(4, false);
        let s = table_stats(&approx, &exact, &Pmf::uniform(4));
        assert!((s.med - s.wmed).abs() < 1e-12);
        assert!(s.med > 0.0);
    }

    #[test]
    fn wmed_bounded_by_wce() {
        let approx = table_of(&broken_array_multiplier(4, 3, 3), 4);
        let exact = OpTable::exact_mul(4, false);
        for pmf in [Pmf::uniform(4), Pmf::half_normal(4, 2.0), Pmf::normal(4, 8.0, 2.0)] {
            let s = table_stats(&approx, &exact, &pmf);
            assert!(s.wmed <= s.wce + 1e-12);
            assert!(s.med <= s.wce + 1e-12);
        }
    }

    #[test]
    fn weighting_shifts_wmed_toward_weighted_rows() {
        // Truncation hurts large operands more (errors scale with operand
        // magnitude), so a distribution concentrated on small x must give
        // smaller WMED than one concentrated on large x.
        let approx = table_of(&truncated_multiplier(4, 5), 4);
        let exact = OpTable::exact_mul(4, false);
        let low = Pmf::half_normal(4, 2.0);
        let high_weights: Vec<f64> = (0..16).map(|x| if x >= 12 { 1.0 } else { 0.0 }).collect();
        let high = Pmf::from_weights(4, high_weights).unwrap();
        let s_low = table_stats(&approx, &exact, &low);
        let s_high = table_stats(&approx, &exact, &high);
        assert!(s_low.wmed < s_high.wmed, "low {} vs high {}", s_low.wmed, s_high.wmed);
    }

    #[test]
    fn percent_helpers_scale() {
        let approx = table_of(&truncated_multiplier(4, 4), 4);
        let exact = OpTable::exact_mul(4, false);
        let s = table_stats(&approx, &exact, &Pmf::uniform(4));
        assert!((s.wmed_percent() - s.wmed * 100.0).abs() < 1e-15);
        assert!((s.med_percent() - s.med * 100.0).abs() < 1e-15);
    }

    #[test]
    fn joint_wmed_reduces_to_wmed_under_uniform_b() {
        let approx = table_of(&broken_array_multiplier(4, 3, 3), 4);
        let exact = OpTable::exact_mul(4, false);
        for pmf_a in [Pmf::uniform(4), Pmf::half_normal(4, 2.0)] {
            let s = table_stats(&approx, &exact, &pmf_a);
            let j = joint_wmed(&approx, &exact, &pmf_a, &Pmf::uniform(4));
            assert!((s.wmed - j).abs() < 1e-12, "{} vs {j}", s.wmed);
        }
    }

    #[test]
    fn joint_weighting_on_both_operands_rewards_double_tailoring() {
        // Weight both operands toward small values; a multiplier exact on
        // small×small must look near-perfect even if it is broken in the
        // upper rows/columns.
        let approx = OpTable::from_fn(4, false, |a, b| if a < 4 && b < 4 { a * b } else { 0 });
        let exact = OpTable::exact_mul(4, false);
        let small = Pmf::from_weights(4, {
            let mut w = vec![0.0; 16];
            w[..4].iter_mut().for_each(|x| *x = 1.0);
            w
        })
        .unwrap();
        assert_eq!(joint_wmed(&approx, &exact, &small, &small), 0.0);
        // Marginal weighting (uniform second operand) still sees errors.
        let s = table_stats(&approx, &exact, &small);
        assert!(s.wmed > 0.0);
    }

    #[test]
    fn joint_wmed_bounded_by_wce() {
        let approx = table_of(&truncated_multiplier(4, 5), 4);
        let exact = OpTable::exact_mul(4, false);
        let s = table_stats(&approx, &exact, &Pmf::uniform(4));
        let j = joint_wmed(&approx, &exact, &Pmf::half_normal(4, 2.0), &Pmf::normal(4, 8.0, 3.0));
        assert!(j <= s.wce + 1e-12);
        assert!(j >= 0.0);
    }

    #[test]
    fn error_rate_counts_mismatches() {
        // Truncating one column only affects products with a_0 = b_0 = 1
        // at column 0: error rate = P(a odd) * P(b odd) = 1/4.
        let approx = table_of(&truncated_multiplier(4, 1), 4);
        let exact = OpTable::exact_mul(4, false);
        let s = table_stats(&approx, &exact, &Pmf::uniform(4));
        assert!((s.error_rate - 0.25).abs() < 1e-12);
        assert_eq!(s.max_abs_error, 1);
    }
}
