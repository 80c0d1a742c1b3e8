//! Exhaustive functional views of two-operand circuits.

use crate::{sign_extend, to_raw};
use apx_gates::{Exhaustive, Netlist};
use std::fmt;

/// Error constructing an [`OpTable`] from a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The netlist does not have `2 * width` primary inputs.
    InputArity {
        /// Inputs the netlist actually has.
        actual: usize,
        /// Inputs required (`2 * width`).
        expected: usize,
    },
    /// The netlist has more output bits than the table can interpret.
    OutputArity {
        /// Outputs the netlist actually has.
        actual: usize,
    },
    /// Width outside the supported range `1..=12`.
    BadWidth(u32),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::InputArity { actual, expected } => {
                write!(f, "netlist has {actual} inputs, table needs {expected}")
            }
            TableError::OutputArity { actual } => {
                write!(f, "netlist has {actual} outputs, more than 63 supported")
            }
            TableError::BadWidth(w) => write!(f, "operand width {w} outside 1..=12"),
        }
    }
}

impl std::error::Error for TableError {}

/// Exhaustive lookup table of a two-operand `width`-bit circuit.
///
/// This is the *functional* face of a multiplier: the image-filter and
/// neural-network substrates execute approximate products through an
/// `OpTable` exactly like an ASIC MAC array executes them through the
/// physical circuit. Entries are stored for all `2^(2·width)` raw operand
/// encodings; an 8-bit multiplier table is 65 536 × 8 B = 512 KiB.
///
/// # Examples
///
/// ```
/// use apx_arith::{array_multiplier, OpTable};
///
/// let exact = OpTable::from_netlist(&array_multiplier(4), 4, false)?;
/// assert_eq!(exact.get(7, 9), 63);
/// # Ok::<(), apx_arith::TableError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTable {
    width: u32,
    signed: bool,
    entries: Vec<i64>,
}

impl OpTable {
    /// Builds the table by exhaustively simulating `netlist`.
    ///
    /// The netlist must follow the crate conventions: inputs
    /// `a[0..w], b[0..w]` LSB-first. Output bits are packed LSB-first and
    /// interpreted as unsigned, or two's complement when `signed`.
    ///
    /// # Errors
    ///
    /// Returns [`TableError`] when the width is unsupported or the netlist
    /// arity does not match.
    pub fn from_netlist(netlist: &Netlist, width: u32, signed: bool) -> Result<Self, TableError> {
        if width == 0 || width > 12 {
            return Err(TableError::BadWidth(width));
        }
        let expected = 2 * width as usize;
        if netlist.num_inputs() != expected {
            return Err(TableError::InputArity { actual: netlist.num_inputs(), expected });
        }
        let no = netlist.num_outputs();
        if no >= 64 {
            return Err(TableError::OutputArity { actual: no });
        }
        let raw = Exhaustive::new(expected).output_table(netlist);
        let entries = raw
            .into_iter()
            .map(|bits| if signed { sign_extend(bits, no as u32) } else { bits as i64 })
            .collect();
        Ok(OpTable { width, signed, entries })
    }

    /// Builds a table directly from a function of the *interpreted*
    /// operand values.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=12`.
    #[must_use]
    pub fn from_fn<F>(width: u32, signed: bool, mut f: F) -> Self
    where
        F: FnMut(i64, i64) -> i64,
    {
        assert!((1..=12).contains(&width), "width outside 1..=12");
        let n = 1usize << width;
        let mut entries = vec![0i64; n * n];
        for b_raw in 0..n as u64 {
            for a_raw in 0..n as u64 {
                let a = Self::decode(a_raw, width, signed);
                let b = Self::decode(b_raw, width, signed);
                entries[((b_raw << width) | a_raw) as usize] = f(a, b);
            }
        }
        OpTable { width, signed, entries }
    }

    /// The exact `width`-bit multiplier table.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=12`.
    #[must_use]
    pub fn exact_mul(width: u32, signed: bool) -> Self {
        Self::from_fn(width, signed, |a, b| a * b)
    }

    #[inline]
    fn decode(raw: u64, width: u32, signed: bool) -> i64 {
        if signed {
            sign_extend(raw, width)
        } else {
            raw as i64
        }
    }

    /// Operand width in bits.
    #[inline]
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether operands and result are two's complement.
    #[inline]
    #[must_use]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// Result for raw operand encodings.
    #[inline]
    #[must_use]
    pub fn get_raw(&self, a_raw: u64, b_raw: u64) -> i64 {
        self.entries[((b_raw << self.width) | a_raw) as usize]
    }

    /// Result for interpreted operand values.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if `a`/`b` fall outside the operand range.
    #[inline]
    #[must_use]
    pub fn get(&self, a: i64, b: i64) -> i64 {
        debug_assert!(self.in_range(a) && self.in_range(b), "operand out of range");
        self.get_raw(to_raw(a, self.width), to_raw(b, self.width))
    }

    /// Whether `v` is representable as an operand.
    #[must_use]
    pub fn in_range(&self, v: i64) -> bool {
        let (lo, hi) = self.operand_range();
        (lo..=hi).contains(&v)
    }

    /// Inclusive operand range `(min, max)`.
    #[must_use]
    pub fn operand_range(&self) -> (i64, i64) {
        if self.signed {
            (-(1i64 << (self.width - 1)), (1i64 << (self.width - 1)) - 1)
        } else {
            (0, (1i64 << self.width) - 1)
        }
    }

    /// Iterates over all interpreted operand values.
    pub fn operands(&self) -> impl Iterator<Item = i64> {
        let (lo, hi) = self.operand_range();
        lo..=hi
    }

    /// Largest absolute result over the full table.
    #[must_use]
    pub fn max_abs(&self) -> i64 {
        self.entries.iter().map(|e| e.abs()).max().unwrap_or(0)
    }

    /// Returns a copy of the table that multiplies by zero *exactly*
    /// (returns 0 whenever either operand is 0), the key property of the
    /// NN-oriented multipliers of Mrazek et al. \[6\].
    #[must_use]
    pub fn with_zero_guard(&self) -> Self {
        let mut out = self.clone();
        let za = to_raw(0, self.width);
        let n = 1u64 << self.width;
        for r in 0..n {
            out.entries[((r << self.width) | za) as usize] = 0;
            out.entries[((za << self.width) | r) as usize] = 0;
        }
        out
    }

    /// Mean absolute error against another table (same shape).
    ///
    /// # Panics
    ///
    /// Panics if the tables have different widths.
    #[must_use]
    pub fn mean_abs_error(&self, reference: &OpTable) -> f64 {
        assert_eq!(self.width, reference.width, "width mismatch");
        let n = self.entries.len() as f64;
        self.entries.iter().zip(&reference.entries).map(|(a, r)| (a - r).abs() as f64).sum::<f64>()
            / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{array_multiplier, baugh_wooley_multiplier, truncated_multiplier};

    #[test]
    fn exact_table_from_netlist_matches_product() {
        let t = OpTable::from_netlist(&array_multiplier(4), 4, false).unwrap();
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.get(a, b), a * b);
            }
        }
    }

    #[test]
    fn signed_table_from_baugh_wooley() {
        let t = OpTable::from_netlist(&baugh_wooley_multiplier(4), 4, true).unwrap();
        for a in -8i64..8 {
            for b in -8i64..8 {
                assert_eq!(t.get(a, b), a * b, "{a}*{b}");
            }
        }
        assert_eq!(t.operand_range(), (-8, 7));
    }

    #[test]
    fn from_fn_and_exact_agree() {
        let a = OpTable::exact_mul(5, false);
        let b = OpTable::from_fn(5, false, |x, y| x * y);
        assert_eq!(a, b);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let nl = array_multiplier(4);
        let err = OpTable::from_netlist(&nl, 5, false).unwrap_err();
        assert!(matches!(err, TableError::InputArity { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn bad_width_is_reported() {
        let nl = array_multiplier(4);
        assert!(matches!(OpTable::from_netlist(&nl, 0, false), Err(TableError::BadWidth(0))));
    }

    #[test]
    fn zero_guard_zeroes_rows_and_columns() {
        let approx = OpTable::from_netlist(&truncated_multiplier(4, 4), 4, false).unwrap();
        let guarded = approx.with_zero_guard();
        for v in 0..16 {
            assert_eq!(guarded.get(0, v), 0);
            assert_eq!(guarded.get(v, 0), 0);
        }
        // Non-zero entries unchanged.
        assert_eq!(guarded.get(5, 7), approx.get(5, 7));
    }

    #[test]
    fn mean_abs_error_zero_for_identical() {
        let t = OpTable::exact_mul(4, true);
        assert_eq!(t.mean_abs_error(&t), 0.0);
        let trunc = OpTable::from_netlist(&truncated_multiplier(4, 5), 4, false).unwrap();
        let exact = OpTable::exact_mul(4, false);
        assert!(trunc.mean_abs_error(&exact) > 0.0);
    }

    #[test]
    fn max_abs_of_exact_unsigned() {
        let t = OpTable::exact_mul(4, false);
        assert_eq!(t.max_abs(), 15 * 15);
    }
}
