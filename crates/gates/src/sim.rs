//! Bit-parallel (64-lane) netlist simulation.
//!
//! A *block* is a batch of 64 input vectors. Within a block, every signal of
//! the circuit is one `u64`; bit `l` of the word is the signal's value in
//! lane `l`. [`Exhaustive`] numbers all `2^n` input vectors of an
//! `n`-input circuit block by block using the classic counting bit-planes
//! (input bit `i` toggles with period `2^(i+1)`).
//!
//! One simulator, [`TileSim`], evaluates blocks for every pass: output
//! tables, statistics walks, table hashes, streamed rows and
//! switching-activity estimation. It simulates only the outputs' live
//! cone, over a *tile* of [`TILE`] blocks per gate dispatch, so each
//! gate's function is matched once and then runs a tight word loop
//! ([`eval_row`]) that auto-vectorizes.

use crate::{GateKind, Netlist};

/// Simulation blocks per tile: the columns [`TileSim`] evaluates per gate
/// dispatch.
///
/// Small enough that an early abort (most CGP offspring bust the error
/// budget within a few high-weight blocks) wastes little work, large
/// enough that the per-gate dispatch amortizes and the inner word loops
/// vectorize.
pub const TILE: usize = 16;

/// Evaluates one gate over a row of simulation words.
///
/// `a`/`b`/`dst` have equal length; each element is one 64-lane block.
/// The gate function is matched once, outside the element loop.
///
/// # Examples
///
/// ```
/// use apx_gates::{eval_row, GateKind};
///
/// let mut dst = [0u64; 2];
/// eval_row(GateKind::Xor, &[0b1100, !0], &[0b1010, 0], &mut dst);
/// assert_eq!(dst, [0b0110, !0]);
/// ```
#[inline]
pub fn eval_row(kind: GateKind, a: &[u64], b: &[u64], dst: &mut [u64]) {
    macro_rules! bin {
        ($f:expr) => {{
            let f: fn(u64, u64) -> u64 = $f;
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = f(x, y);
            }
        }};
    }
    match kind {
        GateKind::Const0 => dst.fill(0),
        GateKind::Const1 => dst.fill(!0u64),
        GateKind::Buf => dst.copy_from_slice(a),
        GateKind::Not => {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = !x;
            }
        }
        GateKind::And => bin!(|x, y| x & y),
        GateKind::Nand => bin!(|x, y| !(x & y)),
        GateKind::Or => bin!(|x, y| x | y),
        GateKind::Nor => bin!(|x, y| !(x | y)),
        GateKind::Xor => bin!(|x, y| x ^ y),
        GateKind::Xnor => bin!(|x, y| !(x ^ y)),
        GateKind::AndNotB => bin!(|x, y| x & !y),
        GateKind::AndNotA => bin!(|x, y| !x & y),
        GateKind::OrNotB => bin!(|x, y| x | !y),
        GateKind::OrNotA => bin!(|x, y| !x | y),
    }
}

/// One netlist's simulation grid for one tile of [`TILE`] blocks.
///
/// Row `sig` holds signal `sig`'s word in each of the tile's columns
/// (`TILE` consecutive blocks, or any other `TILE` blocks the caller
/// loads). Only the nodes in the outputs' transitive fan-in are
/// simulated: the rest never reach an output, so their rows are never
/// written. The grid is allocated once, so a pass over many tiles never
/// reallocates.
///
/// # Examples
///
/// Simulate a full adder over its whole (single-block) domain:
///
/// ```
/// use apx_gates::{Exhaustive, NetlistBuilder, TileSim};
///
/// let mut b = NetlistBuilder::new(3);
/// let (x, y, c) = (b.input(0), b.input(1), b.input(2));
/// let (s, co) = b.full_adder(x, y, c);
/// b.outputs(&[s, co]);
/// let adder = b.finish().unwrap();
///
/// let mut sim = TileSim::new(&adder);
/// sim.load_blocks(&Exhaustive::new(3), 0, 0);
/// sim.run();
/// let mut words = [0u64; 2];
/// sim.output_column(0, &mut words);
/// // Lane 7 is x = y = c = 1: sum 1, carry 1.
/// assert_eq!((words[0] >> 7 & 1, words[1] >> 7 & 1), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct TileSim<'n> {
    nl: &'n Netlist,
    /// The live nodes, in netlist order.
    live: Vec<u32>,
    /// `vals[sig · TILE + t]`: signal `sig`'s word in column `t`.
    vals: Vec<u64>,
}

impl<'n> TileSim<'n> {
    /// Creates a simulator for `nl`'s live cone.
    #[must_use]
    pub fn new(nl: &'n Netlist) -> Self {
        let ni = nl.num_inputs();
        let active = nl.active_mask();
        let live = (0..nl.gate_count() as u32).filter(|&k| active[ni + k as usize]).collect();
        TileSim { nl, live, vals: vec![0; nl.num_signals() * TILE] }
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &'n Netlist {
        self.nl
    }

    /// The input rows, `TILE` words per input: row `i` is
    /// `[i · TILE, (i + 1) · TILE)`. Fill them, then [`TileSim::run`].
    pub fn inputs_mut(&mut self) -> &mut [u64] {
        &mut self.vals[..self.nl.num_inputs() * TILE]
    }

    /// Loads blocks `first .. first + TILE` of the exhaustive enumeration
    /// `ex` into the input rows.
    ///
    /// The netlist's first `lead` inputs drive the top `lead` enumeration
    /// bits, and the remaining inputs count up from bit 0: the leading
    /// operand varies slowest. `lead = 0` is [`Exhaustive`]'s own order
    /// (input `i` is vector bit `i`). The block index wraps modulo the
    /// block count, so columns past the last block repeat earlier blocks.
    ///
    /// # Panics
    ///
    /// Panics if `ex` enumerates a different number of inputs than the
    /// netlist has, or if `lead` exceeds it.
    pub fn load_blocks(&mut self, ex: &Exhaustive, first: usize, lead: usize) {
        let ni = self.nl.num_inputs();
        assert_eq!(ex.num_inputs, ni, "input arity mismatch");
        assert!(lead <= ni, "more leading inputs than inputs");
        for (i, row) in self.inputs_mut().chunks_exact_mut(TILE).enumerate() {
            let bit = if i < lead { ni - lead + i } else { i - lead };
            for (t, word) in row.iter_mut().enumerate() {
                *word = ex.input_word(bit, first + t);
            }
        }
    }

    /// Simulates the live nodes over the tile (inputs already loaded).
    pub fn run(&mut self) {
        let ni = self.nl.num_inputs();
        let nodes = self.nl.nodes();
        for &k in &self.live {
            let node = &nodes[k as usize];
            let (pre, rest) = self.vals.split_at_mut((ni + k as usize) * TILE);
            let a = &pre[node.a.index() * TILE..][..TILE];
            let b = &pre[node.b.index() * TILE..][..TILE];
            eval_row(node.kind, a, b, &mut rest[..TILE]);
        }
    }

    /// Signal `sig`'s `TILE` words from the latest [`TileSim::run`]. Only
    /// inputs and live nodes hold simulated values.
    #[must_use]
    pub fn signal_row(&self, sig: usize) -> &[u64] {
        &self.vals[sig * TILE..][..TILE]
    }

    /// Copies column `t`'s output words (one per output, in output order)
    /// into `words`: the block [`unpack_lanes`] turns into lane values.
    pub fn output_column(&self, t: usize, words: &mut [u64]) {
        debug_assert!(t < TILE);
        for (word, o) in words.iter_mut().zip(self.nl.outputs()) {
            *word = self.vals[o.index() * TILE + t];
        }
    }
}

/// Constant bit-plane patterns for the six lowest input bits.
///
/// `PATTERNS[i]` holds, for every lane `l` in `0..64`, bit `i` of `l`.
const PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Exhaustive input enumeration for an `n`-input circuit.
///
/// Input vectors are numbered `v = 0 .. 2^n`; bit `i` of `v` drives primary
/// input `i`. Vector `v` lives in block `v / 64`, lane `v % 64` (for
/// `n >= 6`; smaller circuits fit in the low lanes of a single block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhaustive {
    num_inputs: usize,
}

impl Exhaustive {
    /// Creates an enumerator for `num_inputs` primary inputs.
    ///
    /// The struct itself is pure block/lane arithmetic, so the cap only
    /// has to keep `2^n` inside `usize`; materializing the full table
    /// ([`Exhaustive::output_table`]) has its own, tighter memory bound.
    /// The 33-bit ceiling matches the widest symbolically evaluable
    /// component (an 8-bit MAC has `4w + 1 = 33` input bits).
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 33`.
    #[must_use]
    pub fn new(num_inputs: usize) -> Self {
        assert!(num_inputs <= 33, "exhaustive enumeration limited to 33 inputs");
        Exhaustive { num_inputs }
    }

    /// Number of 64-lane blocks needed to cover all input vectors.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        if self.num_inputs < 6 {
            1
        } else {
            1usize << (self.num_inputs - 6)
        }
    }

    /// Number of *valid* lanes in a block (< 64 only when `n < 6`).
    #[must_use]
    pub fn lanes_per_block(&self) -> usize {
        if self.num_inputs < 6 {
            1usize << self.num_inputs
        } else {
            64
        }
    }

    /// Total number of input vectors (`2^n`).
    #[must_use]
    pub fn num_vectors(&self) -> usize {
        1usize << self.num_inputs
    }

    /// The word driving input bit `i` in block `block`.
    #[inline]
    #[must_use]
    pub fn input_word(&self, bit: usize, block: usize) -> u64 {
        debug_assert!(bit < self.num_inputs);
        if bit < 6 {
            PATTERNS[bit]
        } else if (block >> (bit - 6)) & 1 == 1 {
            !0
        } else {
            0
        }
    }

    /// Computes the full output table of `netlist`.
    ///
    /// Entry `v` packs the output bits for input vector `v` into a `u64`
    /// (output 0 in bit 0). Requires `netlist.num_outputs() <= 64`. The
    /// blocks are simulated a tile at a time on a [`TileSim`].
    ///
    /// # Panics
    ///
    /// Panics if the netlist arity does not match, it has more than 64
    /// outputs, or the circuit has more than 30 inputs (the full table
    /// would not fit in memory).
    #[must_use]
    pub fn output_table(&self, netlist: &Netlist) -> Vec<u64> {
        assert_eq!(netlist.num_inputs(), self.num_inputs, "arity mismatch");
        assert!(netlist.num_outputs() <= 64, "more than 64 outputs");
        assert!(self.num_inputs <= 30, "full output table limited to 30 inputs");
        let mut sim = TileSim::new(netlist);
        let lanes = self.lanes_per_block();
        let blocks = self.num_blocks();
        let mut table = vec![0u64; self.num_vectors()];
        let mut words = vec![0u64; netlist.num_outputs()];
        for first in (0..blocks).step_by(TILE) {
            sim.load_blocks(self, first, 0);
            sim.run();
            for t in 0..TILE.min(blocks - first) {
                sim.output_column(t, &mut words);
                let base = (first + t) * lanes;
                unpack_lanes(&words, lanes, &mut table[base..base + lanes]);
            }
        }
        table
    }
}

/// Transposes per-output words into per-lane packed values.
///
/// `words[k]` is the bit-plane of output `k`; after the call, `out[l]` holds
/// the packed output value of lane `l` (output `k` in bit `k`). The loops
/// are branch-free, with the lanes innermost, so they vectorize.
///
/// # Panics
///
/// Panics if `lanes > 64`, `words.len() > 64`, or `out.len() < lanes`.
pub fn unpack_lanes(words: &[u64], lanes: usize, out: &mut [u64]) {
    assert!(lanes <= 64 && words.len() <= 64 && out.len() >= lanes);
    let out = &mut out[..lanes];
    out.fill(0);
    for (k, &w) in words.iter().enumerate() {
        for (l, slot) in out.iter_mut().enumerate() {
            *slot |= ((w >> l) & 1) << k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, NetlistBuilder};
    use apx_rng::Xoshiro256;

    fn ripple2_adder() -> Netlist {
        // 2-bit + 2-bit -> 3-bit ripple adder built from adder helpers.
        let mut b = NetlistBuilder::new(4);
        let (a0, a1, b0, b1) = (b.input(0), b.input(1), b.input(2), b.input(3));
        let (s0, c0) = b.half_adder(a0, b0);
        let (s1, c1) = b.full_adder(a1, b1, c0);
        b.outputs(&[s0, s1, c1]);
        b.finish().unwrap()
    }

    #[test]
    fn eval_row_agrees_with_eval_words() {
        let a = [0x0123_4567_89AB_CDEFu64, !0, 0, 0xAAAA_5555_AAAA_5555];
        let b = [0xFEDC_BA98_7654_3210u64, 0, !0, 0x0F0F_F0F0_0F0F_F0F0];
        let mut dst = [0u64; 4];
        for kind in GateKind::ALL {
            eval_row(kind, &a, &b, &mut dst);
            for t in 0..4 {
                assert_eq!(dst[t], kind.eval_words(a[t], b[t]), "{kind} col {t}");
            }
        }
    }

    #[test]
    fn patterns_encode_lane_bits() {
        for (bit, &pattern) in PATTERNS.iter().enumerate() {
            for lane in 0..64u64 {
                let expect = (lane >> bit) & 1;
                let got = (pattern >> lane) & 1;
                assert_eq!(got, expect, "bit {bit} lane {lane}");
            }
        }
    }

    #[test]
    fn exhaustive_adder_table_is_correct() {
        let nl = ripple2_adder();
        let table = Exhaustive::new(4).output_table(&nl);
        for v in 0..16u64 {
            let a = v & 3;
            let b = (v >> 2) & 3;
            assert_eq!(table[v as usize], a + b, "{a}+{b}");
        }
    }

    #[test]
    fn block_sim_matches_bool_eval_on_random_netlists() {
        let mut rng = Xoshiro256::from_seed(404);
        for trial in 0..20 {
            let ni = 3 + rng.gen_range(4); // 3..=6 inputs
            let n_nodes = 5 + rng.gen_range(30);
            let mut b = NetlistBuilder::new(ni);
            for k in 0..n_nodes {
                let limit = ni + k;
                let kind = *rng.choose(&GateKind::ALL).unwrap();
                let a = crate::SignalId(rng.gen_range(limit) as u32);
                let bb = crate::SignalId(rng.gen_range(limit) as u32);
                b.push(kind, a, bb);
            }
            let total = ni + n_nodes;
            let outs: Vec<crate::SignalId> =
                (0..4).map(|_| crate::SignalId(rng.gen_range(total) as u32)).collect();
            b.outputs(&outs);
            let nl = b.finish().unwrap();
            let ex = Exhaustive::new(ni);
            let table = ex.output_table(&nl);
            for (v, &table_word) in table.iter().enumerate() {
                let bits: Vec<bool> = (0..ni).map(|i| (v >> i) & 1 == 1).collect();
                let outs = nl.eval_bool(&bits);
                let packed: u64 = outs.iter().enumerate().map(|(k, &o)| (o as u64) << k).sum();
                assert_eq!(table_word, packed, "trial {trial}, vector {v}");
            }
        }
    }

    #[test]
    fn small_circuit_single_block() {
        let ex = Exhaustive::new(3);
        assert_eq!(ex.num_blocks(), 1);
        assert_eq!(ex.lanes_per_block(), 8);
        let ex8 = Exhaustive::new(8);
        assert_eq!(ex8.num_blocks(), 4);
        assert_eq!(ex8.lanes_per_block(), 64);
    }

    #[test]
    fn unpack_lanes_round_trip() {
        // Every lane count and word count: each lane holds exactly its
        // column of bits, and lanes past `lanes` are left alone.
        let mut rng = Xoshiro256::from_seed(7);
        for lanes in 1..=64 {
            for n_words in 1..=64 {
                let words: Vec<u64> = (0..n_words).map(|_| rng.next_u64()).collect();
                let mut out = vec![0x5A5A_5A5A_5A5A_5A5Au64; 65];
                unpack_lanes(&words, lanes, &mut out);
                for (l, &lane) in out[..lanes].iter().enumerate() {
                    let want: u64 =
                        words.iter().enumerate().map(|(k, w)| ((w >> l) & 1) << k).sum();
                    assert_eq!(lane, want, "lanes={lanes} words={n_words} lane {l}");
                }
                assert!(out[lanes..].iter().all(|&v| v == 0x5A5A_5A5A_5A5A_5A5A));
            }
        }
    }

    #[test]
    fn tile_sim_matches_bool_eval_with_leading_inputs() {
        // Leading inputs drive the top enumeration bits: column `t` of the
        // tile starting at `first` is the block whose vectors put bit `i`
        // of the vector on input `(i + lead) % ni`.
        let mut rng = Xoshiro256::from_seed(99);
        for ni in [3usize, 6, 7, 11] {
            let mut b = NetlistBuilder::new(ni);
            for k in 0..40 {
                let kind = *rng.choose(&GateKind::ALL).unwrap();
                let a = crate::SignalId(rng.gen_range(ni + k) as u32);
                let bb = crate::SignalId(rng.gen_range(ni + k) as u32);
                b.push(kind, a, bb);
            }
            let outs: Vec<crate::SignalId> =
                (0..5).map(|_| crate::SignalId(rng.gen_range(ni + 40) as u32)).collect();
            b.outputs(&outs);
            let nl = b.finish().unwrap();
            let ex = Exhaustive::new(ni);
            for lead in [0, 1, ni / 2, ni] {
                let mut tiles = TileSim::new(&nl);
                let mut words = vec![0u64; outs.len()];
                for first in (0..ex.num_blocks()).step_by(TILE) {
                    tiles.load_blocks(&ex, first, lead);
                    tiles.run();
                    for t in 0..TILE.min(ex.num_blocks() - first) {
                        tiles.output_column(t, &mut words);
                        for lane in 0..ex.lanes_per_block() {
                            let v = (first + t) * 64 + lane;
                            let bits: Vec<bool> = (0..ni)
                                .map(|i| {
                                    let bit = if i < lead { ni - lead + i } else { i - lead };
                                    (v >> bit) & 1 == 1
                                })
                                .collect();
                            let got: Vec<bool> =
                                words.iter().map(|w| (w >> lane) & 1 == 1).collect();
                            assert_eq!(got, nl.eval_bool(&bits), "ni={ni} lead={lead} v={v}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn high_bit_planes_select_blocks() {
        let ex = Exhaustive::new(8);
        // bit 6 pattern: all-ones in odd blocks.
        assert_eq!(ex.input_word(6, 0), 0);
        assert_eq!(ex.input_word(6, 1), !0);
        assert_eq!(ex.input_word(7, 1), 0);
        assert_eq!(ex.input_word(7, 2), !0);
    }
}
