//! Functional golden models for every generated circuit.
//!
//! The approximate families ([`crate::truncated_multiplier`],
//! [`crate::broken_array_multiplier`], …) are *defined* by which partial
//! products they keep, so the functions here are the specification the
//! gate-level generators are exhaustively verified against.

use crate::sign_extend;

/// Truncated array multiplier: partial products in columns below
/// `trunc_cols` are dropped, so the low `trunc_cols` product bits are 0.
///
/// `trunc_cols` may range from 0 (exact) to `2 * width` (all dropped).
#[must_use]
pub fn mul_truncated(width: u32, trunc_cols: u32, a: u64, b: u64) -> u64 {
    let mut acc = 0u64;
    for j in 0..width {
        for i in 0..width {
            if i + j < trunc_cols {
                continue;
            }
            acc += (((a >> i) & 1) * ((b >> j) & 1)) << (i + j);
        }
    }
    acc
}

/// Broken-array multiplier (BAM, Mahdiani et al.): a partial product
/// `a_i · b_j` survives iff its row is above the horizontal break
/// (`j < hbl`) and its column is at or beyond the vertical break
/// (`i + j >= vbl`).
#[must_use]
pub fn mul_broken(width: u32, hbl: u32, vbl: u32, a: u64, b: u64) -> u64 {
    let mut acc = 0u64;
    for j in 0..width.min(hbl) {
        for i in 0..width {
            if i + j < vbl {
                continue;
            }
            acc += (((a >> i) & 1) * ((b >> j) & 1)) << (i + j);
        }
    }
    acc
}

/// Enumerates the Baugh-Wooley partial-product terms of a `width`-bit
/// signed multiplier that survive the BAM break levels, and sums them
/// modulo `2^(2·width)`.
///
/// Terms (see the derivation in `multipliers.rs`):
///
/// * `a_i·b_j` at column `i+j` (row `j`) for `i, j < width-1`;
/// * `!(a_i·b_{w-1})` at column `i+w-1` (row `w-1`) for `i < width-1`;
/// * `!(a_{w-1}·b_j)` at column `j+w-1` (row `j`) for `j < width-1`;
/// * `a_{w-1}·b_{w-1}` at column `2w-2` (row `w-1`);
/// * correction constants `+2^w` and `+2^(2w-1)` (always kept).
///
/// With `hbl = width`, `vbl = 0` this is the exact signed product.
#[must_use]
pub fn mul_bw_broken(width: u32, hbl: u32, vbl: u32, a: i64, b: i64) -> i64 {
    let w = width;
    let bit = |v: i64, i: u32| ((v >> i) & 1) as u64;
    let keep = |col: u32, row: u32| row < hbl && col >= vbl;
    let mut acc: u64 = 0;
    if w == 1 {
        if keep(0, 0) {
            acc += bit(a, 0) * bit(b, 0);
        }
    } else {
        for j in 0..w - 1 {
            for i in 0..w - 1 {
                if keep(i + j, j) {
                    acc += (bit(a, i) & bit(b, j)) << (i + j);
                }
            }
        }
        for i in 0..w - 1 {
            if keep(i + w - 1, w - 1) {
                acc += (1 - (bit(a, i) & bit(b, w - 1))) << (i + w - 1);
            }
        }
        for j in 0..w - 1 {
            if keep(j + w - 1, j) {
                acc += (1 - (bit(a, w - 1) & bit(b, j))) << (j + w - 1);
            }
        }
        if keep(2 * w - 2, w - 1) {
            acc += (bit(a, w - 1) & bit(b, w - 1)) << (2 * w - 2);
        }
    }
    // Correction constants are part of the fixed wiring, never broken.
    acc = acc.wrapping_add(1u64 << w).wrapping_add(1u64 << (2 * w - 1));
    sign_extend(acc & ((1u64 << (2 * w)) - 1), 2 * w)
}

/// Exact signed product computed through the Baugh-Wooley identity —
/// sanity-checks the derivation itself.
#[must_use]
pub fn mul_bw_exact(width: u32, a: i64, b: i64) -> i64 {
    mul_bw_broken(width, width, 0, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bw_identity_matches_signed_product() {
        for w in 1..=6u32 {
            let half = 1i64 << (w - 1);
            for a in -half..half {
                for b in -half..half {
                    assert_eq!(mul_bw_exact(w, a, b), a * b, "w={w} {a}*{b}");
                }
            }
        }
    }

    #[test]
    fn truncation_zero_is_exact() {
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(mul_truncated(4, 0, a, b), a * b);
            }
        }
    }

    #[test]
    fn truncation_drops_low_columns() {
        for a in 0..16u64 {
            for b in 0..16u64 {
                let t = mul_truncated(4, 3, a, b);
                assert!(t <= a * b, "truncation only underestimates");
                // Exact in the kept columns: difference limited to dropped PPs.
                let dropped_max: u64 = (0..4u32)
                    .flat_map(|j| (0..4u32).map(move |i| (i, j)))
                    .filter(|&(i, j)| i + j < 3)
                    .map(|(i, j)| 1u64 << (i + j))
                    .sum();
                assert!(a * b - t <= dropped_max);
            }
        }
    }

    #[test]
    fn broken_with_full_levels_is_exact() {
        for a in 0..32u64 {
            for b in 0..32u64 {
                assert_eq!(mul_broken(5, 5, 0, a, b), a * b);
            }
        }
    }

    #[test]
    fn broken_hbl_truncates_operand_rows() {
        // hbl = 2 keeps only b's low two bits.
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(mul_broken(4, 2, 0, a, b), a * (b & 3));
            }
        }
    }

    #[test]
    fn bw_broken_is_signed_range() {
        let w = 4;
        let half = 1i64 << (w - 1);
        for a in -half..half {
            for b in -half..half {
                let v = mul_bw_broken(w, 3, 2, a, b);
                let lim = 1i64 << (2 * w - 1);
                assert!(v >= -lim && v < lim);
            }
        }
    }
}
