//! Per-row evaluation: the wide statistics contract and the streamed
//! enumeration engine.
//!
//! The paper's WMED (Eq. 2) weights each row `x` of the operand grid by
//! `D(x)`, so a candidate's error is a sum of exact per-row integers, and
//! a bounded evaluation needs only the rows with nonzero weight. Two
//! engines produce those integers one row at a time, without ever
//! holding a table sized by the input domain:
//!
//! * the symbolic engine ([`crate::symbolic`]) model-counts ROBDDs of
//!   the row's difference planes against the operator's exact seed
//!   circuit (every operator; it serves `Add` and `Mac` past the
//!   enumeration cap, where BDDs stay small);
//! * **streamed enumeration** (below) simulates the row's `2^(free−6)`
//!   blocks through the candidate, [`TILE`] blocks at a time on the tiled
//!   simulator every exhaustive pass shares ([`apx_gates::TileSim`]),
//!   builds the same blocks' exact planes arithmetically from
//!   [`Operator::exact_value`], and reduces every tile with a bit-sliced
//!   kernel. It is how the bit-parallel backend evaluates multipliers
//!   past the cap, where their BDDs blow up.
//!
//! # The wide contract
//!
//! Past the exhaustive cap there is no enumeration order left to match,
//! so the statistics are defined per row. Each engine reports a row as a
//! [`RowErr`] (`Σ|d|`, the vectors with `d ≠ 0` and `max |d|`, exact
//! integers), and [`RowCtx`] replays them in one fixed f64 order:
//!
//! * [`RowCtx::replay_stats`]: every row in ascending `x`, one f64 step
//!   per row;
//! * [`RowCtx::replay_wmed`]: the nonzero-weight rows (`ordered_x`) in
//!   stable decreasing-weight order, `total += weight · row`, with an
//!   abort check per row.
//!
//! Same integers, same f64 operations in the same order: the two wide
//! engines are bit-identical. A bounded evaluation may also abort
//! *inside* a row, once the running total plus the row's partial sum
//! exceeds the budget. That decision is the row-granular one: every term
//! is nonnegative and f64 rounding is monotone, so the completed row —
//! and every later prefix — would exceed the budget too.
//!
//! # Exact planes without a reference circuit
//!
//! Within a row the weighted operand is a constant, and two's-complement
//! decoding is linear in the bits, so every operator's exact value is an
//! affine function of the free bits: `a·b` and `a + b` over the
//! integers, and the MAC's `acc + a·b` modulo `2^n`, where it wraps.
//! Splitting a free vector into its block bits (6 and up) and its lane
//! bits (the low 6) then gives, for the row's first vector `v`,
//!
//! ```text
//! exact(v + 64·j + l) ≡ exact(v + 64·j) + (exact(v + l) − exact(v))   (mod 2^out_bits)
//! ```
//!
//! So a row costs 64 [`Operator::exact_value`] calls for its lane
//! offsets, and each block one more call and a bit-sliced ripple add over
//! the `out_bits` output planes. The add must stop there: an unsigned
//! MAC's sum wraps, so a carry into the extension plane would put a set
//! bit where the exact value has none. The extension plane is derived as
//! the candidate's is (a copy of the top output plane when signed, zero
//! otherwise), which is exact because every exact value fits `out_bits`
//! bits. These are the words the exact seed circuit simulates to, the
//! circuit the symbolic engine compiles, so both wide engines subtract
//! the same reference.

use crate::engine::ZERO_TILE;
use crate::stats::ErrorStats;
use apx_arith::Operator;
use apx_gates::{Exhaustive, Netlist, TileSim, TILE};

/// Upper bound on the streamed kernel's planes: `2·16 + 1` for a 16-bit
/// multiplier, the widest operand the bit-parallel backend reaches. The
/// per-block kernels below the cap keep their own, smaller bound.
pub(crate) const WIDE_PLANES: usize = 33;

/// Exact error integers of one row (or of part of one).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowErr {
    /// `Σ|exact − got|` over the row's vectors.
    pub abs: u64,
    /// Vectors whose output differs from the exact one.
    pub nonzero: u64,
    /// Largest `|exact − got|`.
    pub max_abs: u64,
}

/// Borrowed evaluator shape for one per-row call.
pub(crate) struct RowCtx<'a> {
    /// The operator whose [`Operator::exact_value`] the rows are scored
    /// against.
    pub op: Operator,
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
    /// decreasing weight: the per-`x` flattening of the enumeration
    /// backends' `ordered_blocks`.
    pub ordered_x: &'a [(u32, f64)],
    /// One weight per raw operand encoding (including zeros).
    pub weights: &'a [f64],
    /// The operator's exact seed circuit at this width/signedness — the
    /// reference the symbolic engine compiles next to each candidate.
    /// Only symbolic evaluators carry it: streamed rows take their
    /// reference from [`Operator::exact_value`].
    pub seed: Option<&'a Netlist>,
}

impl RowCtx<'_> {
    /// [`ErrorStats`] from exact per-row integers, replayed in the wide
    /// contract's order: ascending `x`, one f64 step per row.
    ///
    /// `mred` is `NaN`: the mean *relative* error is not a sum of the
    /// per-row integers (see [`ErrorStats::mred`]).
    pub(crate) fn replay_stats(&self, mut row: impl FnMut(u64) -> RowErr) -> ErrorStats {
        let mut sum_abs = 0.0f64;
        let mut sum_weighted = 0.0f64;
        let mut nonzero = 0u64;
        let mut max_abs = 0u64;
        for (x, &weight) in self.weights.iter().enumerate() {
            let r = row(x as u64);
            sum_abs += r.abs as f64;
            sum_weighted += weight * r.abs as f64;
            nonzero += r.nonzero;
            max_abs = max_abs.max(r.max_abs);
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
            max_abs_error: max_abs as i64,
        }
    }

    /// Raw (un-normalized) bounded WMED from exact per-row sums, replayed
    /// in the wide contract's order over `ordered_x`: `None` once the
    /// running total exceeds `raw_limit`.
    ///
    /// `row(x, exceeds)` returns row `x`'s `Σ|d|`. An engine that sums a
    /// row in parts may return `None` as soon as `exceeds(partial)` holds
    /// for a partial sum — an abort inside the row, which the module docs
    /// show is the same decision.
    pub(crate) fn replay_wmed(
        &self,
        raw_limit: f64,
        mut row: impl FnMut(u64, &dyn Fn(u64) -> bool) -> Option<u64>,
    ) -> Option<f64> {
        let mut total = 0.0f64;
        for &(x, weight) in self.ordered_x {
            let exceeds = |partial: u64| total + weight * partial as f64 > raw_limit;
            let sum = row(u64::from(x), &exceeds)?;
            total += weight * sum as f64;
            if total > raw_limit {
                return None;
            }
        }
        Some(total)
    }

    /// Full [`ErrorStats`] by streamed enumeration of every row.
    pub(crate) fn streamed_stats(&self, nl: &Netlist) -> ErrorStats {
        let mut got = TileSim::new(nl);
        self.replay_stats(|x| {
            self.stream_row::<true>(&mut got, x, &|_| false)
                .expect("an unbounded row always completes")
        })
    }

    /// Raw bounded WMED by streamed enumeration of the support rows.
    pub(crate) fn streamed_wmed_raw(&self, nl: &Netlist, raw_limit: f64) -> Option<f64> {
        let mut got = TileSim::new(nl);
        self.replay_wmed(raw_limit, |x, exceeds| {
            self.stream_row::<false>(&mut got, x, exceeds).map(|r| r.abs)
        })
    }

    /// Streams row `x` through the candidate (`got`) one tile of blocks
    /// at a time, against exact planes built from the row's lane offsets
    /// and one exact value per block (the module docs show why that is
    /// exact). With `STATS` false only `abs` is reduced, and the row stops
    /// with `None` as soon as `exceeds` holds for its partial sum.
    ///
    /// Row `x` is the run of `2^(free − 6)` enumeration blocks starting at
    /// block `x · 2^(free − 6)`, with the operand on the leading inputs:
    /// netlist input `i < width` is bit `i` of `x`, pinned across all
    /// lanes, and every later input is free bit `i − width`, which counts
    /// up across the lanes and the row's blocks (the enumeration layout of
    /// [`Operator::exact_value`]).
    fn stream_row<const STATS: bool>(
        &self,
        got: &mut TileSim<'_>,
        x: u64,
        exceeds: &dyn Fn(u64) -> bool,
    ) -> Option<RowErr> {
        let (w, free) = (self.width as usize, self.free as usize);
        let ex = Exhaustive::new(w + free);
        let blocks = 1usize << (free - 6);
        let origin = x << free;
        let offsets = self.lane_offsets(origin);
        let mut exact = [[0u64; TILE]; WIDE_PLANES];
        let mut row = RowErr::default();
        let mut start = 0;
        while start < blocks {
            let tcount = TILE.min(blocks - start);
            got.load_blocks(&ex, x as usize * blocks + start, w);
            got.run();
            for t in 0..tcount {
                let block_exact = self.exact(origin + 64 * (start + t) as u64);
                self.fill_exact_column(&offsets, block_exact, &mut exact, t);
            }
            let tile =
                tile_err::<STATS>(self.planes, &plane_refs(&exact), &self.planes_of(got), tcount);
            row.abs += tile.abs;
            row.nonzero += tile.nonzero;
            row.max_abs = row.max_abs.max(tile.max_abs);
            if !STATS && exceeds(row.abs) {
                return None;
            }
            start += tcount;
        }
        Some(row)
    }

    /// The exact value of enumeration vector `v`, as raw two's-complement
    /// bits.
    fn exact(&self, v: u64) -> u64 {
        self.op.exact_value(self.width, self.signed, v) as u64
    }

    /// The output planes of `exact(origin + l) − exact(origin)` over the
    /// 64 lanes `l` of the row starting at vector `origin`.
    fn lane_offsets(&self, origin: u64) -> [u64; WIDE_PLANES] {
        let base = self.exact(origin);
        let mut planes = [0u64; WIDE_PLANES];
        for lane in 0..64 {
            let d = self.exact(origin + lane).wrapping_sub(base);
            for (k, plane) in planes[..self.out_bits as usize].iter_mut().enumerate() {
                *plane |= ((d >> k) & 1) << lane;
            }
        }
        planes
    }

    /// Column `t` of a tile's exact planes: the lane `offsets` plus the
    /// block's exact value at lane 0, a bit-sliced ripple add modulo
    /// `2^out_bits`, then the extension plane.
    fn fill_exact_column(
        &self,
        offsets: &[u64; WIDE_PLANES],
        block_exact: u64,
        exact: &mut [[u64; TILE]; WIDE_PLANES],
        t: usize,
    ) {
        let out = self.out_bits as usize;
        let mut carry = 0u64;
        for (k, (plane, &o)) in exact[..out].iter_mut().zip(offsets).enumerate() {
            let c = 0u64.wrapping_sub((block_exact >> k) & 1);
            plane[t] = o ^ c ^ carry;
            carry = (o & c) | (carry & (o ^ c));
        }
        exact[out][t] = if self.signed { exact[out - 1][t] } else { 0 };
    }

    /// The candidate's error planes in a simulated tile: the outputs, then
    /// one extension plane that replicates the top output when signed and
    /// is zero otherwise.
    fn planes_of<'s>(&self, sim: &'s TileSim<'_>) -> [&'s [u64]; WIDE_PLANES] {
        let mut srcs: [&[u64]; WIDE_PLANES] = [&ZERO_TILE; WIDE_PLANES];
        for (s, o) in srcs.iter_mut().zip(sim.netlist().outputs()) {
            *s = sim.signal_row(o.index());
        }
        srcs[self.planes - 1] = if self.signed { srcs[self.planes - 2] } else { &ZERO_TILE };
        srcs
    }
}

/// Plane source table over `planes` (zero planes past its end).
fn plane_refs(planes: &[[u64; TILE]]) -> [&[u64]; WIDE_PLANES] {
    let mut srcs: [&[u64]; WIDE_PLANES] = [&ZERO_TILE; WIDE_PLANES];
    for (s, plane) in srcs.iter_mut().zip(planes) {
        *s = plane;
    }
    srcs
}

/// Bit-sliced error integers of the first `tcount` columns of one tile.
///
/// `exact[k]` and `got[k]` hold plane `k` of each column's 64 lanes of
/// `planes`-bit two's-complement values. The arithmetic is the per-block
/// kernel's (`engine::abs_err_sum`), column-major: a ripple-borrow pass
/// finds the difference's sign planes `s`, and a second pass folds each
/// difference plane `d_k` into `Σ|d| = pc(s) + Σ_k 2^k·pc(d_k ⊕ s)`.
/// With `STATS` it also counts the lanes with `d ≠ 0` and finds `max |d|`
/// over all lanes of the columns: the second pass materializes the
/// magnitude planes `|d| = (d ⊕ s) + s` (a ripple increment with carry-in
/// `s`), and a most-significant-first descent keeps the lanes that set
/// each plane while any do.
fn tile_err<const STATS: bool>(
    planes: usize,
    exact: &[&[u64]; WIDE_PLANES],
    got: &[&[u64]; WIDE_PLANES],
    tcount: usize,
) -> RowErr {
    debug_assert!((2..=WIDE_PLANES).contains(&planes));
    let mut borrow = [0u64; TILE];
    let mut s = [0u64; TILE];
    for k in 0..planes {
        let (e, g) = (&exact[k][..TILE], &got[k][..TILE]);
        for t in 0..TILE {
            let x = e[t] ^ g[t];
            s[t] = x ^ borrow[t];
            borrow[t] = (!e[t] & g[t]) | (!x & borrow[t]);
        }
    }
    let mut sum = [0u64; TILE];
    for t in 0..TILE {
        sum[t] = u64::from(s[t].count_ones());
    }
    let mut borrow = [0u64; TILE];
    let mut any = [0u64; TILE];
    let mut carry = s;
    let mut mag = [[0u64; TILE]; WIDE_PLANES];
    for k in 0..planes {
        let (e, g) = (&exact[k][..TILE], &got[k][..TILE]);
        for t in 0..TILE {
            let x = e[t] ^ g[t];
            let d = x ^ borrow[t];
            borrow[t] = (!e[t] & g[t]) | (!x & borrow[t]);
            let a = d ^ s[t];
            sum[t] += u64::from(a.count_ones()) << k;
            if STATS {
                any[t] |= d;
                mag[k][t] = a ^ carry[t];
                carry[t] &= a;
            }
        }
    }
    let mut err = RowErr { abs: sum[..tcount].iter().sum(), ..RowErr::default() };
    if STATS {
        err.nonzero = any[..tcount].iter().map(|a| u64::from(a.count_ones())).sum();
        let mut lanes = [0u64; TILE];
        lanes[..tcount].fill(!0);
        for k in (0..planes).rev() {
            if mag[k].iter().zip(&lanes).any(|(m, l)| m & l != 0) {
                err.max_abs |= 1 << k;
                for (l, m) in lanes.iter_mut().zip(&mag[k]) {
                    *l &= m;
                }
            }
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_err_matches_per_lane_arithmetic() {
        // Random `planes`-bit two's-complement pairs whose difference fits
        // `planes` bits, for every plane count and tail length: each
        // reduction must equal the lane-by-lane integers.
        let mut rng = apx_rng::Xoshiro256::from_seed(0x57E4);
        for planes in 2..=WIDE_PLANES {
            for tcount in [1, 5, TILE] {
                let half = 1i64 << (planes - 1);
                let mut exact = vec![[0u64; TILE]; planes];
                let mut got = vec![[0u64; TILE]; planes];
                let mut want = RowErr::default();
                for t in 0..TILE {
                    for lane in 0..64 {
                        let e = rng.gen_range(half as usize) as i64 - half / 2;
                        // Every fourth lane exact, so `nonzero` is tested.
                        let g = if rng.gen_range(4) == 0 {
                            e
                        } else {
                            e + (rng.gen_range(half as usize) as i64 - half / 2) / 2
                        };
                        if t < tcount {
                            let d = (e - g).unsigned_abs();
                            want.abs += d;
                            want.nonzero += u64::from(d != 0);
                            want.max_abs = want.max_abs.max(d);
                        }
                        for k in 0..planes {
                            exact[k][t] |= (((e as u64) >> k) & 1) << lane;
                            got[k][t] |= (((g as u64) >> k) & 1) << lane;
                        }
                    }
                }
                let (e, g) = (plane_refs(&exact), plane_refs(&got));
                let at = format!("planes={planes} tcount={tcount}");
                assert_eq!(tile_err::<true>(planes, &e, &g, tcount), want, "{at}");
                let abs_only = RowErr { abs: want.abs, ..RowErr::default() };
                assert_eq!(tile_err::<false>(planes, &e, &g, tcount), abs_only, "{at}");
            }
        }
    }
}
