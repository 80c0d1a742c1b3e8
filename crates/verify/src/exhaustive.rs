//! Exhaustive bit-parallel simulation at enumerable widths.
//!
//! Where [`Operator::supports_exhaustive_width`] holds — the rule by
//! which the width already picks the evaluator backend — simulating
//! every input vector is far cheaper than compiling monolithic ROBDD
//! planes, and just as exact. The semantic layer's question "which
//! function is this?" is answered here at those widths by
//! [`table_hash`], a 128-bit hash of the full output behaviour, streamed
//! block by block (no `2^n`-entry table is ever built). One function
//! always gives one hash, so the equivalence-class rule keys its classes
//! on it where [`crate::functional_digest`] serves past the cap.

use crate::FNV_LO_OFFSET;
use apx_arith::Operator;
use apx_dist::{fnv1a64, FNV1A64_OFFSET};
use apx_gates::{Exhaustive, Netlist, TileSim, TILE};

/// 128-bit hash of the full output behaviour of `nl` as a `width`-bit
/// `op` instance: the crate's two FNV-1a-64 streams over the output
/// count and every block's lane-masked output words.
///
/// The walk is weighted operand major: for each raw weighted value `x`
/// (netlist inputs `0..width`, pinned across all lanes), the free inputs
/// (netlist inputs `width..`) count up across the lanes of
/// `max(1, 2^(free - 6))` blocks, and lanes past `2^free` are masked off.
///
/// The blocks are simulated a tile at a time on a [`TileSim`], in the
/// enumeration order that puts the operand on the top bits, so each
/// simulated block holds whole `x` values in order: one `x` over one or
/// more blocks when `free >= 6`, several `x` side by side (each fed as
/// its own masked word) below that.
///
/// Netlists computing the same function hash equal; distinct functions
/// collide only as the hash itself does.
///
/// The caller guarantees an enumerable width and the operator's input
/// arity.
pub(crate) fn table_hash(nl: &Netlist, op: Operator, width: u32) -> u128 {
    debug_assert!(op.supports_exhaustive_width(width));
    let outputs = (nl.num_outputs() as u64).to_le_bytes();
    let mut hi = fnv1a64(&outputs, FNV1A64_OFFSET);
    let mut lo = fnv1a64(&outputs, FNV_LO_OFFSET);
    let (w, ni) = (width as usize, op.num_inputs(width));
    let ex = Exhaustive::new(ni);
    // Lanes per `x` within a block, and the `x` values a block holds.
    let x_lanes = 1usize << (ni - w).min(6);
    let mask = if x_lanes == 64 { !0 } else { (1u64 << x_lanes) - 1 };
    let xs_per_block = ex.lanes_per_block() / x_lanes;
    let blocks = ex.num_blocks();
    let mut sim = TileSim::new(nl);
    let mut words = vec![0u64; nl.num_outputs()];
    for first in (0..blocks).step_by(TILE) {
        sim.load_blocks(&ex, first, w);
        sim.run();
        for t in 0..TILE.min(blocks - first) {
            sim.output_column(t, &mut words);
            for j in 0..xs_per_block {
                for &word in &words {
                    let bytes = ((word >> (j * x_lanes)) & mask).to_le_bytes();
                    hi = fnv1a64(&bytes, hi);
                    lo = fnv1a64(&bytes, lo);
                }
            }
        }
    }
    (u128::from(hi) << 64) | u128::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_arith::{broken_array_multiplier, lower_or_adder, truncated_multiplier};

    #[test]
    fn table_hash_byte_stream_is_pinned() {
        // Values from the block-at-a-time walk this hash was defined by, so
        // the streamed byte order cannot change unnoticed: one `x` over part
        // of a block (multiplier w4, adders w4 and w2; the w2 adder's whole
        // domain is one partial block), exactly one block (w6) and several
        // blocks (w8, and the MAC's 2^7 free vectors at w2).
        let cases = [
            (
                truncated_multiplier(4, 2),
                Operator::Mul,
                4,
                0x4e0e_22e9_6cce_3da9_fdb6_85b0_e2f4_f354,
            ),
            (
                truncated_multiplier(6, 3),
                Operator::Mul,
                6,
                0x5763_fb6b_488d_4f14_f1c8_586d_b97f_d6d5,
            ),
            (
                broken_array_multiplier(8, 6, 4),
                Operator::Mul,
                8,
                0x7bcc_37bd_a622_fc75_0030_4567_838b_0350,
            ),
            (lower_or_adder(4, 2), Operator::Add, 4, 0x441c_ff2f_99e4_4f30_a32a_e74a_db9c_cfb5),
            (lower_or_adder(2, 1), Operator::Add, 2, 0x238d_cea4_9d44_608c_1b26_58f0_390d_2679),
            (
                Operator::Mac.seed_circuit(2, false),
                Operator::Mac,
                2,
                0x536b_4380_cc15_2e48_7100_2b13_9032_bc45,
            ),
        ];
        for (nl, op, width, want) in &cases {
            assert_eq!(table_hash(nl, *op, *width), *want, "{op} w{width}");
        }
    }
}
