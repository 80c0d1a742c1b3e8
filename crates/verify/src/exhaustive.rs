//! Exhaustive bit-parallel simulation at enumerable widths.
//!
//! Where [`Operator::supports_exhaustive_width`] holds — the rule by
//! which the width already picks the evaluator backend — simulating
//! every input vector is far cheaper than compiling monolithic ROBDD
//! planes, and just as exact. Two questions the semantic layer asks are
//! answered here at those widths:
//!
//! * "which function is this?" — [`table_hash`], a 128-bit hash of the
//!   full output behaviour, streamed block by block (no `2^n`-entry
//!   table is ever built). One function always gives one hash, so the
//!   equivalence-class rule keys its classes on it where
//!   [`crate::functional_digest`] serves past the cap;
//! * "what are the exact output extremes per weighted operand?" —
//!   [`exact_ranges`], the same answer [`crate::output_ranges`] gives,
//!   read off the simulation instead of greedy descents over planes.
//!
//! Both walk the input space through one helper, weighted operand
//! major: per raw weighted value `x`, the free inputs are enumerated
//! across the lanes of one or more 64-lane blocks.

use crate::semantic::assert_component_arity;
use crate::FNV_LO_OFFSET;
use apx_arith::Operator;
use apx_dist::{fnv1a64, FNV1A64_OFFSET};
use apx_gates::{BlockSim, Exhaustive, Netlist};

/// Simulates `nl` as a `width`-bit `op` instance on every input vector,
/// weighted operand major. For each raw weighted value `x` (netlist
/// inputs `0..width`, pinned across all lanes), the free inputs
/// (netlist inputs `width..`) count up across the lanes of
/// `max(1, 2^(free - 6))` blocks; `visit(x, words, lanes)` receives each
/// block's output words and the mask of its valid lanes (all 64 unless
/// there are fewer than six free inputs).
///
/// The caller guarantees an enumerable width and the operator's input
/// arity.
fn for_each_block(
    nl: &Netlist,
    op: Operator,
    width: u32,
    mut visit: impl FnMut(usize, &[u64], u64),
) {
    debug_assert!(op.supports_exhaustive_width(width));
    let w = width as usize;
    let free = Exhaustive::new(op.num_inputs(width) - w);
    let lanes = match free.lanes_per_block() {
        64 => !0,
        n => (1u64 << n) - 1,
    };
    let mut sim = BlockSim::new(nl);
    let mut inputs = vec![0u64; nl.num_inputs()];
    for x in 0..1usize << width {
        for (i, word) in inputs[..w].iter_mut().enumerate() {
            *word = if (x >> i) & 1 == 1 { !0 } else { 0 };
        }
        for block in 0..free.num_blocks() {
            free.fill_inputs(block, &mut inputs[w..]);
            visit(x, sim.run(nl, &inputs), lanes);
        }
    }
}

/// 128-bit hash of the full output behaviour of `nl` as a `width`-bit
/// `op` instance: the crate's two FNV-1a-64 streams over the output
/// count and every block's lane-masked output words, in the fixed walk
/// order of `for_each_block`.
///
/// Netlists computing the same function hash equal; distinct functions
/// collide only as the hash itself does.
///
/// The caller guarantees an enumerable width and the operator's input
/// arity.
pub(crate) fn table_hash(nl: &Netlist, op: Operator, width: u32) -> u128 {
    let outputs = (nl.num_outputs() as u64).to_le_bytes();
    let mut hi = fnv1a64(&outputs, FNV1A64_OFFSET);
    let mut lo = fnv1a64(&outputs, FNV_LO_OFFSET);
    for_each_block(nl, op, width, |_, words, lanes| {
        for &word in words {
            let bytes = (word & lanes).to_le_bytes();
            hi = fnv1a64(&bytes, hi);
            lo = fnv1a64(&bytes, lo);
        }
    });
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Exact per-weighted-operand output ranges of a `width`-bit `op`
/// netlist at an enumerable width, in biased output space — the
/// contract of [`crate::output_ranges`], with no budget to exhaust.
///
/// Per block, a greedy most-significant-first pass over the lane-masked
/// output words finds the largest and the smallest word any valid lane
/// produces; the extremes over the blocks of one `x` are its range.
///
/// # Panics
///
/// Panics if `width` is not exhaustively enumerable for `op` or the
/// netlist's arity contradicts the operator contract.
pub(crate) fn exact_ranges(
    nl: &Netlist,
    op: Operator,
    width: u32,
    signed: bool,
) -> Vec<(u64, u64)> {
    assert_component_arity(nl, op, width, "range analysis");
    assert!(op.supports_exhaustive_width(width), "operand width {width} is not enumerable");
    let top = nl.num_outputs() - 1;
    let mut ranges = vec![(u64::MAX, 0u64); 1 << width];
    for_each_block(nl, op, width, |x, words, lanes| {
        let (mut max_lanes, mut min_lanes) = (lanes, lanes);
        let (mut max, mut min) = (0u64, 0u64);
        for (k, &word) in words.iter().enumerate().rev() {
            // Biased space complements the sign bit.
            let word = if signed && k == top { !word } else { word };
            if max_lanes & word != 0 {
                max |= 1 << k;
                max_lanes &= word;
            }
            if min_lanes & !word == 0 {
                min |= 1 << k;
            } else {
                min_lanes &= !word;
            }
        }
        let range = &mut ranges[x];
        *range = (range.0.min(min), range.1.max(max));
    });
    ranges
}
