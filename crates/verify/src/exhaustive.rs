//! Bit-parallel simulation keys for the equivalence-class rule.
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
//!
//! At every width the rule first keys members by [`signature`]: the
//! outputs on a fixed handful of tiles, a few of the enumeration and a
//! few pseudo-random. Equal functions share a signature, so a member
//! whose signature no other member shares is its own class, and only
//! members that share one need the exact key.

use crate::FNV_LO_OFFSET;
use apx_arith::Operator;
use apx_dist::{fnv1a64, FNV1A64_OFFSET};
use apx_gates::{Exhaustive, Netlist, TileSim, TILE};

/// Tiles of the weighted-operand-major enumeration a [`signature`]
/// simulates: block 0 (the smallest weighted values) and the middle block
/// (the top weighted bit set).
const SIGNATURE_ENUM_TILES: usize = 2;
/// Pseudo-random tiles a [`signature`] simulates after those.
const SIGNATURE_RANDOM_TILES: usize = 2;
/// Seed of the signature's input stream: fixed, so equal functions see
/// equal inputs.
const SIGNATURE_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// SplitMix64: the signature's pseudo-random input words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 128-bit hash of the outputs of `nl`, a `width`-bit `op` instance, on a
/// fixed set of input vectors: [`SIGNATURE_ENUM_TILES`] tiles of the
/// enumeration [`table_hash`] walks (weighted operand major), then
/// [`SIGNATURE_RANDOM_TILES`] tiles of a fixed-seed SplitMix64 stream.
///
/// Every lane of every tile is a valid input assignment (columns past
/// the last block and lanes past a small domain repeat earlier vectors),
/// so the outputs are hashed unmasked, a word at a time: each word goes
/// through a multiply-rotate step that is a bijection of the state, so
/// two output streams that differ in one word always hash apart.
///
/// Netlists computing the same function hash equal. Distinct functions
/// hash equal when they agree on every simulated vector, or by a hash
/// collision: a signature can separate two members, never merge them.
///
/// The caller guarantees the operator's input arity and at most 33
/// inputs ([`Exhaustive::new`]'s limit).
pub(crate) fn signature(nl: &Netlist, op: Operator, width: u32) -> u128 {
    debug_assert_eq!(nl.num_inputs(), op.num_inputs(width));
    let ex = Exhaustive::new(nl.num_inputs());
    let mut sim = TileSim::new(nl);
    let outputs = nl.num_outputs() as u64;
    let (mut hi, mut lo) = (FNV1A64_OFFSET ^ outputs, FNV_LO_OFFSET ^ outputs);
    let mut state = SIGNATURE_SEED;
    for tile in 0..SIGNATURE_ENUM_TILES + SIGNATURE_RANDOM_TILES {
        if tile < SIGNATURE_ENUM_TILES {
            sim.load_blocks(&ex, tile * ex.num_blocks() / SIGNATURE_ENUM_TILES, width as usize);
        } else {
            sim.inputs_mut().iter_mut().for_each(|word| *word = splitmix64(&mut state));
        }
        sim.run();
        for o in nl.outputs() {
            for &word in sim.signal_row(o.index()) {
                hi = (hi ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
                lo = (lo ^ word).wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(41);
            }
        }
    }
    (u128::from(hi) << 64) | u128::from(lo)
}

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
