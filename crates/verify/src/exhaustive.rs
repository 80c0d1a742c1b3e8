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
use apx_gates::{BlockSim, Exhaustive, Netlist};

/// 128-bit hash of the full output behaviour of `nl` as a `width`-bit
/// `op` instance: the crate's two FNV-1a-64 streams over the output
/// count and every block's lane-masked output words.
///
/// The walk is weighted operand major: for each raw weighted value `x`
/// (netlist inputs `0..width`, pinned across all lanes), the free inputs
/// (netlist inputs `width..`) count up across the lanes of
/// `max(1, 2^(free - 6))` blocks, and lanes past `2^free` are masked off.
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
            for &word in sim.run(nl, &inputs) {
                let bytes = (word & lanes).to_le_bytes();
                hi = fnv1a64(&bytes, hi);
                lo = fnv1a64(&bytes, lo);
            }
        }
    }
    (u128::from(hi) << 64) | u128::from(lo)
}
