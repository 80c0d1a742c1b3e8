//! The symbolic (ROBDD model-counting) evaluator backend.
//!
//! The enumeration backends visit all `2^ni` input vectors; this engine
//! never does. For each weighted operand value `x` it builds, over the
//! `free` (non-distribution) input bits only:
//!
//! 1. the candidate's output bit-planes and the seed circuit's exact
//!    output bit-planes as BDDs (`x`'s bits enter as constants, so the
//!    diagrams stay small — a multiplier with one operand fixed is just
//!    a shifted-add structure);
//! 2. the two's-complement difference planes `d = exact − got` via the
//!    same ripple-borrow recurrence the bit-parallel error kernel uses
//!    (`d_k = e_k ⊕ g_k ⊕ borrow`, `borrow' = (¬e_k ∧ g_k) ∨ (¬(e_k ⊕
//!    g_k) ∧ borrow)`), with one sign-extension plane on each side;
//! 3. the absolute-error sum as a *weighted model count*:
//!    `Σ|d| = count(s) + Σ_k 2^k · count(d_k ⊕ s)` where `s` is the
//!    difference's sign plane — the symbolic twin of the engine's
//!    `abs_err_sum`.
//!
//! # Bit-identity with the enumeration backends
//!
//! There is one BDD variable order at every width: the free bits most
//! significant first (free bit `e` is variable `free − 1 − e`). That
//! puts the high `free − 6` bits (the per-`x` block index) above the
//! low 6 (the 64 lanes of a block), so [`apx_bdd::Bdd::descend`]
//! restricted to one block followed by [`apx_bdd::Bdd::count_from`]
//! yields exactly the per-block integer error sum the bit-parallel
//! kernel produces. A count is a number of satisfying assignments, so
//! neither the order of the block bits among themselves (the walk pins
//! each one where it sits) nor that of the lane bits can change it;
//! only "block bits above lane bits" matters. The accumulation then
//! replays the engine's contract verbatim: blocks of one `x` in
//! ascending order, `x` values in stable decreasing-weight order
//! (flattening to precisely the enumeration backends' `ordered_blocks`
//! sequence), `total += weight · (sum as f64)` per block, early abort
//! when `total` exceeds the raw budget. Same integer sums, same f64
//! operations in the same order — bit-identical results wherever an
//! enumeration backend can run at all. Beyond the exhaustive width cap
//! there is no enumeration order left to match and the per-block walk
//! would cost `2^(free−6)` descents per `x`, so there the accumulation
//! is per `x` (one whole-row weighted count, abort check per row) — see
//! `SymbolicCtx::block_exact`.

use crate::stats::ErrorStats;
use apx_bdd::{opcode, Bdd, NodeId, FALSE};
use apx_gates::Netlist;

/// Borrowed evaluator shape for one symbolic call (the symbolic twin of
/// `EngineCtx`).
pub(crate) struct SymbolicCtx<'a> {
    /// Operand width in bits.
    pub width: u32,
    /// Two's-complement interpretation of operands and outputs.
    pub signed: bool,
    /// Netlist output bits (`op.num_outputs(width)`).
    pub out_bits: u32,
    /// Non-distribution input bits (`ni − width`); must be ≥ 6 (the
    /// evaluator routes smaller domains through the per-lane loop).
    pub free: u32,
    /// Error planes: `out_bits + 1`.
    pub planes: usize,
    /// `(x_raw, weight)`, zero weights removed, stable-sorted by
    /// decreasing weight — the per-`x` flattening of `ordered_blocks`.
    pub ordered_x: &'a [(u32, f64)],
    /// Replay the enumeration backends' per-block accumulation (true at
    /// exhaustively evaluable widths, where bit-identity is promised).
    /// At wide widths no enumeration backend exists to match, and the
    /// per-block walk would cost `2^(free−6)` descents per `x`, so the
    /// accumulation is defined per `x` instead: one whole-row count,
    /// `total += weight · row`, abort check per row.
    pub block_exact: bool,
    /// One weight per raw operand encoding (including zeros).
    pub weights: &'a [f64],
    /// The operator's exact seed circuit at this width/signedness —
    /// the reference the difference planes subtract.
    pub seed: &'a Netlist,
}

impl SymbolicCtx<'_> {
    /// Block-index variables: the high `free − 6` free bits sit on top
    /// of the order so one [`Bdd::descend`] pins a 64-lane block.
    fn block_vars(&self) -> u32 {
        debug_assert!(self.free >= 6, "symbolic block path requires free >= 6");
        self.free - 6
    }

    /// Builds `nl`'s output planes over the free variables with the
    /// weighted operand fixed to `x`, plus the sign-extension plane —
    /// the symbolic analogue of `EngineCtx::gather_got`.
    ///
    /// Variable order, most significant first at every width: free bit
    /// `e` maps to BDD variable `free − 1 − e`. The block bits (`e ≥ 6`)
    /// take variables `0..block_vars` and the lane bits the rest, so
    /// the block-exact walk pins block bit `j` at variable
    /// `block_vars − 1 − j`.
    fn circuit_planes(&self, bdd: &mut Bdd, nl: &Netlist, x: u64) -> Vec<NodeId> {
        let w = self.width as usize;
        let inputs: Vec<NodeId> = (0..nl.num_inputs())
            .map(|i| {
                if i < w {
                    Bdd::constant((x >> i) & 1 == 1)
                } else {
                    bdd.var(self.free - 1 - (i - w) as u32)
                }
            })
            .collect();
        let mut planes = compile(bdd, nl, &inputs);
        let sign = if self.signed { planes[self.out_bits as usize - 1] } else { FALSE };
        planes.push(sign);
        debug_assert_eq!(planes.len(), self.planes);
        planes
    }

    /// Difference planes `d = exact − got` (ripple-borrow subtraction on
    /// bit-planes, mirroring the engine's `abs_err_sum` preamble).
    fn diff_planes(bdd: &mut Bdd, exact: &[NodeId], got: &[NodeId]) -> Vec<NodeId> {
        let mut d = Vec::with_capacity(exact.len());
        let mut borrow = FALSE;
        for (&e, &g) in exact.iter().zip(got) {
            let x = bdd.xor(e, g);
            d.push(bdd.xor(x, borrow));
            let ge = bdd.apply(g, e, opcode::AND_NOT_B); // ¬e ∧ g
            let bx = bdd.apply(borrow, x, opcode::AND_NOT_B); // ¬(e⊕g) ∧ borrow
            borrow = bdd.or(ge, bx);
        }
        d
    }

    /// The per-`x` functions whose model counts yield `Σ|d|`: the sign
    /// plane `s` and `d_k ⊕ s` for `k < planes − 1` (the top plane's
    /// term `d_{planes−1} ⊕ s` is identically false).
    fn abs_terms(&self, bdd: &mut Bdd, nl: &Netlist, x: u64) -> (Vec<NodeId>, NodeId) {
        let exact = self.circuit_planes(bdd, self.seed, x);
        let got = self.circuit_planes(bdd, nl, x);
        let d = Self::diff_planes(bdd, &exact, &got);
        let s = d[self.planes - 1];
        let terms = d[..self.planes - 1].iter().map(|&dk| bdd.xor(dk, s)).collect();
        (terms, s)
    }

    /// Raw (un-normalized) bounded WMED — the symbolic twin of
    /// `EngineCtx::wmed_raw_bitpar` / `wmed_raw_scalar`, bit-identical
    /// to both by the accumulation argument in the module docs.
    pub(crate) fn wmed_raw(&self, nl: &Netlist, raw_limit: f64) -> Option<f64> {
        let t_vars = self.block_vars();
        let mut bdd = Bdd::new(self.free);
        let mut total = 0.0f64;
        for &(x_raw, weight) in self.ordered_x {
            bdd.clear();
            let (terms, s) = self.abs_terms(&mut bdd, nl, u64::from(x_raw));
            if self.block_exact {
                for block in 0..1u64 << t_vars {
                    let pin = |v: u32| (block >> (t_vars - 1 - v)) & 1 == 1;
                    let mut sum = 0u64;
                    for (k, &f) in terms.iter().enumerate() {
                        let node = bdd.descend(f, t_vars, pin);
                        sum += bdd.count_from(node, t_vars) << k;
                    }
                    let node = bdd.descend(s, t_vars, pin);
                    sum += bdd.count_from(node, t_vars);
                    total += weight * sum as f64;
                    if total > raw_limit {
                        return None;
                    }
                }
            } else {
                let mut sum = 0u64;
                for (k, &f) in terms.iter().enumerate() {
                    sum += bdd.count_from(f, 0) << k;
                }
                sum += bdd.count_from(s, 0);
                total += weight * sum as f64;
                if total > raw_limit {
                    return None;
                }
            }
        }
        Some(total)
    }

    /// Full [`ErrorStats`] for widths beyond the exhaustive cap, where
    /// the per-lane statistics loop cannot run.
    ///
    /// Every field except `mred` is derived from exact integer counts:
    /// per-`x` absolute error sums (weighted and unweighted), a
    /// satisfiability count of "any difference plane set" for the error
    /// rate, and a greedy most-significant-bit-first descent over the
    /// absolute-value planes for the worst case. The mean *relative*
    /// error distance is not a weighted count over output bit-planes —
    /// it needs the joint value of `|d|` and `|exact|` per vector — so
    /// the wide path reports `NaN` for it (documented on
    /// [`ErrorStats::mred`]).
    pub(crate) fn wide_stats(&self, nl: &Netlist) -> ErrorStats {
        let mut bdd = Bdd::new(self.free);
        let mut sum_abs = 0.0f64;
        let mut sum_weighted = 0.0f64;
        let mut nonzero = 0u64;
        let mut max_abs = 0i64;
        for x_raw in 0..self.weights.len() {
            bdd.clear();
            let (terms, s) = self.abs_terms(&mut bdd, nl, x_raw as u64);
            let mut row_abs = 0u64;
            for (k, &f) in terms.iter().enumerate() {
                row_abs += bdd.count_from(f, 0) << k;
            }
            row_abs += bdd.count_from(s, 0);
            sum_abs += row_abs as f64;
            sum_weighted += self.weights[x_raw] * row_abs as f64;
            // d ≠ 0 ⟺ some difference plane is set ⟺ some |d| term or the
            // sign plane is set ((d ⊕ s) + s = 0 only when d = 0).
            let mut any = s;
            for &f in &terms {
                any = bdd.or(any, f);
            }
            nonzero += bdd.count_from(any, 0);
            max_abs = max_abs.max(self.row_max_abs(&mut bdd, &terms, s));
        }
        let total = (1u128 << (self.free + self.width)) as f64;
        let n = (1u64 << self.free) as f64;
        let range = (1u64 << self.out_bits) as f64;
        ErrorStats {
            med: sum_abs / total / range,
            wmed: sum_weighted / n / range,
            wce: max_abs as f64 / range,
            error_rate: nonzero as f64 / total,
            mred: f64::NAN,
            max_abs_error: max_abs,
        }
    }

    /// Maximum `|d|` over one `x` row: materialize the absolute-value
    /// planes `Y = (d ⊕ s) + s` (ripple increment with carry-in `s`),
    /// then take their [`Bdd::max_value`].
    fn row_max_abs(&self, bdd: &mut Bdd, terms: &[NodeId], s: NodeId) -> i64 {
        let mut y = Vec::with_capacity(self.planes);
        let mut carry = s;
        for &t in terms {
            y.push(bdd.xor(t, carry));
            carry = bdd.and(t, carry);
        }
        // Top |d| plane: the (planes−1)-th term is identically false, so
        // Y_{planes−1} is just the remaining carry.
        y.push(carry);
        bdd.max_value(&y) as i64
    }
}

/// `nl`'s output planes given one BDD function per primary input. Each
/// gate is one `apply` of its [`apx_gates::GateKind::truth_table`]; no
/// node budget is checked, because an evaluation needs every plane.
pub(crate) fn compile(bdd: &mut Bdd, nl: &Netlist, inputs: &[NodeId]) -> Vec<NodeId> {
    nl.propagate(inputs, |kind, a, b| Some(bdd.apply(a, b, kind.truth_table())))
        .expect("an unbudgeted compile never stops early")
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_gates::{GateKind, NetlistBuilder};

    #[test]
    fn gate_truth_tables_match_eval_bool() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        for kind in GateKind::ALL {
            let f = bdd.apply(a, b, kind.truth_table());
            for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
                let got = bdd.eval(f, |v| if v == 0 { va } else { vb });
                assert_eq!(got, kind.eval_bool(va, vb), "{kind} ({va},{vb})");
            }
        }
    }

    #[test]
    fn compiled_planes_match_scalar_semantics() {
        // A 2-bit ripple adder slice built by hand.
        let mut b = NetlistBuilder::new(4);
        let (a0, a1, b0, b1) = (0u32, 1, 2, 3);
        let s0 = b.xor(a0.into(), b0.into());
        let c0 = b.and(a0.into(), b0.into());
        let t = b.xor(a1.into(), b1.into());
        let s1 = b.xor(t, c0);
        b.outputs(&[s0, s1]);
        let nl = b.finish().unwrap();
        let mut bdd = Bdd::new(4);
        let vars: Vec<NodeId> = (0..4).map(|i| bdd.var(i)).collect();
        let planes = compile(&mut bdd, &nl, &vars);
        for v in 0..16u64 {
            let packed: u64 = planes
                .iter()
                .enumerate()
                .map(|(j, &p)| u64::from(bdd.eval(p, |i| (v >> i) & 1 == 1)) << j)
                .sum();
            let expect = nl.eval_bool(&(0..4).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>());
            let expect_packed: u64 =
                expect.iter().enumerate().map(|(j, &bit)| u64::from(bit) << j).sum();
            assert_eq!(packed, expect_packed, "v={v}");
        }
    }
}
