//! The simulation engines behind [`crate::CircuitEvaluator`].
//!
//! Three evaluation strategies live here, all producing bit-identical
//! numbers (every per-block error sum is an exact `u64`, and callers share
//! one floating-point accumulation order):
//!
//! * **tile evaluation** — the netlist's live cone is walked node-major
//!   over a tile of [`TILE`] simulation blocks at once
//!   ([`apx_gates::TileSim`], shared with every other exhaustive pass), so
//!   each gate dispatches once and then runs a tight, auto-vectorizable
//!   loop of word ops;
//! * a **bit-sliced error kernel** ([`abs_err_sum`] per block,
//!   [`tile_terms`] per tile) — instead of unpacking 64 lanes and
//!   subtracting per lane, the per-block `Σ|exact − got|` is computed
//!   directly on the output bit-planes with a ripple-borrow subtract and
//!   per-plane popcounts;
//! * **incremental re-evaluation** ([`WmedState`]) — a full grid of cached
//!   signal rows (every signal × every weighted block) lets a mutated
//!   netlist be re-scored by simulating only the fanout cone of the changed
//!   nodes, chunk by chunk, reading everything else from the cache.
//!
//! The scalar reference interpreter ([`ScalarSim`]) evaluates one operand
//! pair at a time and exists so property tests can cross-check the fast
//! paths against an independent implementation.

use apx_arith::{EvalBackend, Operator};
use apx_gates::{eval_row, fanout_cone, unpack_lanes, Exhaustive, Netlist, TileSim, TILE};
use apx_gates::{GateKind, SignalId};

/// One-tile chunks the incremental path walks before its chunks start to
/// grow (see [`chunk_tiles`]).
///
/// Infeasible offspring overwhelmingly bust the error budget within the
/// first few (highest-weight) tiles, where one-tile chunks keep the wasted
/// work small; offspring that survive this prefix almost always run to
/// completion, and for them one gate dispatch per node over a long row is
/// far cheaper than re-dispatching every node in every tile.
const BULK_AFTER: usize = 4;

/// Tiles in chunk `i` of the incremental walk: [`BULK_AFTER`] one-tile
/// chunks, then `2·BULK_AFTER` tiles, doubling from there (8, 16, 32…).
/// Growing chunks keep the wasted simulation small when a mid-grid abort
/// does happen.
fn chunk_tiles(i: usize) -> usize {
    if i < BULK_AFTER {
        1
    } else {
        (2 * BULK_AFTER) << (i - BULK_AFTER)
    }
}

/// Upper bound on the per-block error kernels' planes: `2·width + 1` at
/// the widest exhaustively enumerable operand (10). The streamed row
/// kernel past the cap has its own bound (`rows::WIDE_PLANES`).
pub(crate) const MAX_PLANES: usize = 21;

/// All-zero tile, the source slice for zero-extension planes.
pub(crate) static ZERO_TILE: [u64; TILE] = [0; TILE];

/// Evaluates one gate over a row in place, reporting whether any word
/// changed.
///
/// `dst` holds the old row on entry and the fresh one on return; the
/// change check folds into the same pass (one read-modify-write stream
/// instead of simulate-into-scratch + compare + copy), which is what the
/// commit path wants: a changed row gets rewritten anyway, so the early
/// exit a `!=` comparison offers buys nothing there.
#[inline]
fn eval_row_diff(kind: GateKind, a: &[u64], b: &[u64], dst: &mut [u64]) -> bool {
    macro_rules! unary {
        ($f:expr) => {{
            let f: fn(u64) -> u64 = $f;
            let mut diff = 0u64;
            for (d, &x) in dst.iter_mut().zip(a) {
                let v = f(x);
                diff |= v ^ *d;
                *d = v;
            }
            diff != 0
        }};
    }
    macro_rules! bin {
        ($f:expr) => {{
            let f: fn(u64, u64) -> u64 = $f;
            let mut diff = 0u64;
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                let v = f(x, y);
                diff |= v ^ *d;
                *d = v;
            }
            diff != 0
        }};
    }
    match kind {
        GateKind::Const0 => unary!(|_| 0),
        GateKind::Const1 => unary!(|_| !0u64),
        GateKind::Buf => unary!(|x| x),
        GateKind::Not => unary!(|x| !x),
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

/// Bit-sliced `Σ_lanes |exact − got|` over one 64-lane block.
///
/// `exact` and `got` hold `planes` bit-planes of the two `planes`-bit
/// two's-complement values (bit `l` of plane `k` is bit `k` of lane `l`).
/// The difference of a `2w`-bit product and a (sign-extended) `2w`-bit
/// circuit output always fits `2w + 1` two's-complement bits, so with
/// `planes = 2w + 1` the modular ripple-borrow subtraction below recovers
/// the true signed difference of every lane:
///
/// `Σ|d| = Σ_k 2^k·pc(d_k ⊕ s) + pc(s)`
///
/// where `s = d_{P−1}` is the per-lane sign mask and `pc` is popcount: a
/// non-negative lane contributes its value `Σ 2^k·d_k` unchanged, while a
/// negative lane's absolute value is its two's complement `¬U + 1`, i.e.
/// each plane bit flipped (`d_k ⊕ 1`) plus one — the `pc(s)` term.
#[inline]
pub(crate) fn abs_err_sum(exact: &[u64], got: &[u64], planes: usize) -> u64 {
    debug_assert!((1..=MAX_PLANES).contains(&planes));
    let mut d = [0u64; MAX_PLANES];
    let mut borrow = 0u64;
    for ((dk, &e), &g) in d.iter_mut().zip(&exact[..planes]).zip(&got[..planes]) {
        let x = e ^ g;
        *dk = x ^ borrow;
        borrow = (!e & g) | (!x & borrow);
    }
    let s = d[planes - 1];
    let mut sum = u64::from(s.count_ones());
    for (k, &dk) in d.iter().enumerate().take(planes) {
        sum += u64::from((dk ^ s).count_ones()) << k;
    }
    sum
}

/// Per-tile error terms: `weight · Σ|exact − got|` for each column of one
/// tile, with the arithmetic of [`abs_err_sum`].
///
/// Column-major: the tile is processed plane by plane with the [`TILE`]
/// columns side by side, so the independent ripple-borrow chains pipeline
/// (and auto-vectorize) instead of serializing one column at a time.
/// `exact_tile` is the evaluator's tile-major exact-plane copy for this
/// tile (`exact_tile[k · TILE + t]`); `srcs[k]` is plane `k`'s [`TILE`]
/// output words, referenced straight from wherever they live (cached rows,
/// the delta walk's chunk grid), so nothing is staged into a contiguous
/// buffer first.
///
/// The plane count is a run-time value and no difference planes are
/// stored: the first pass runs the borrow chain up to the sign plane `s`,
/// the second re-runs it and folds each difference plane into
/// `pc(s) + Σ_k 2^k·pc(d_k ⊕ s)` as it appears. Every column's integer sum
/// is [`abs_err_sum`]'s, so every term is the same exact `f64`. Writes the
/// first `ordered_tile.len()` terms.
#[inline]
fn tile_terms(
    planes: usize,
    exact_tile: &[u64],
    srcs: &[&[u64]; MAX_PLANES],
    ordered_tile: &[(u32, f64)],
    terms: &mut [f64; TILE],
) {
    debug_assert!((1..=MAX_PLANES).contains(&planes));
    let mut borrow = [0u64; TILE];
    let mut s = [0u64; TILE];
    for k in 0..planes {
        let e = &exact_tile[k * TILE..][..TILE];
        let g = &srcs[k][..TILE];
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
    for k in 0..planes {
        let e = &exact_tile[k * TILE..][..TILE];
        let g = &srcs[k][..TILE];
        for t in 0..TILE {
            let x = e[t] ^ g[t];
            let d = x ^ borrow[t];
            borrow[t] = (!e[t] & g[t]) | (!x & borrow[t]);
            sum[t] += u64::from((d ^ s[t]).count_ones()) << k;
        }
    }
    for (t, &(_, weight)) in ordered_tile.iter().enumerate() {
        terms[t] = weight * sum[t] as f64;
    }
}

/// Shared shape/lookup context for the width ≥ 6 engine paths.
///
/// Borrowed from the evaluator's fields for the duration of one call; keeps
/// the engine functions at a sane arity.
pub(crate) struct EngineCtx<'a> {
    /// The arithmetic operator whose reference function errors are
    /// measured against.
    pub op: Operator,
    /// Operand width in bits.
    pub width: u32,
    /// Two's-complement interpretation of operands and outputs.
    pub signed: bool,
    /// Netlist output bits (`op.num_outputs(width)`).
    pub out_bits: u32,
    /// `(block, weight)` in decreasing weight order, zero weights removed.
    pub ordered: &'a [(u32, f64)],
    /// `exact_planes[block·planes + k]`: bit-plane `k` of the exact
    /// outputs of `block`'s 64 lanes.
    pub exact_planes: &'a [u64],
    /// Tile-major exact planes in weighted-position order
    /// (`exact_tiles[(tile·planes + k)·TILE + t]`).
    pub exact_tiles: &'a [u64],
    /// `input_rows[i·n_pos + pos]`: input `i`'s word at block position
    /// `pos` (position-ordered, like the cached state rows).
    pub input_rows: &'a [u64],
    /// Error-kernel planes: `out_bits + 1`.
    pub planes: usize,
}

impl EngineCtx<'_> {
    /// Gathers the `planes` output bit-planes of tile column `t` into `got`.
    #[inline]
    fn gather_got(
        &self,
        got: &mut [u64; MAX_PLANES],
        read: impl Fn(usize) -> u64,
        outs: &[SignalId],
    ) {
        for (g, o) in got.iter_mut().zip(outs) {
            *g = read(o.index());
        }
        // Sign-extension plane: one bit above a signed output replicates
        // its top bit; unsigned outputs are zero-extended.
        got[self.planes - 1] = if self.signed { got[self.planes - 2] } else { 0 };
    }

    /// Builds the per-plane source-slice table for a dense tile: plane `j`
    /// is output `j`'s words wherever they currently live (`src` maps a
    /// signal index to its slice for this tile), and the sign-extension
    /// plane replicates the top output plane when signed (zero-extension
    /// otherwise — [`ZERO_TILE`]).
    #[inline]
    fn dense_srcs<'b>(
        &self,
        outs: &[SignalId],
        src: impl Fn(usize) -> &'b [u64],
    ) -> [&'b [u64]; MAX_PLANES] {
        let mut srcs: [&[u64]; MAX_PLANES] = [&ZERO_TILE; MAX_PLANES];
        for (s, o) in srcs.iter_mut().zip(outs) {
            *s = src(o.index());
        }
        srcs[self.planes - 1] = if self.signed { srcs[self.planes - 2] } else { &ZERO_TILE };
        srcs
    }

    /// Error terms for the dense tile of `tcount` columns at `pos` (a
    /// multiple of [`TILE`]). A tail tile is copied into a zeroed full tile
    /// first; the exact tiles are zero-padded too, so the padding columns
    /// score zero and their terms are never written.
    #[inline]
    fn dense_tile_terms(
        &self,
        pos: usize,
        tcount: usize,
        srcs: &[&[u64]; MAX_PLANES],
        terms: &mut [f64; TILE],
    ) {
        let exact_tile =
            &self.exact_tiles[(pos / TILE) * self.planes * TILE..][..self.planes * TILE];
        let ordered_tile = &self.ordered[pos..pos + tcount];
        if tcount == TILE {
            return tile_terms(self.planes, exact_tile, srcs, ordered_tile, terms);
        }
        let mut padded = [[0u64; TILE]; MAX_PLANES];
        for (p, src) in padded.iter_mut().zip(srcs).take(self.planes) {
            p[..tcount].copy_from_slice(&src[..tcount]);
        }
        let padded_srcs = padded.each_ref().map(<[u64; TILE]>::as_slice);
        tile_terms(self.planes, exact_tile, &padded_srcs, ordered_tile, terms);
    }

    /// Bit-parallel bounded WMED: raw weighted error over `ordered`, or
    /// `None` once the running total exceeds `raw_limit`.
    pub(crate) fn wmed_raw_bitpar(&self, nl: &Netlist, raw_limit: f64) -> Option<f64> {
        let outs = nl.outputs();
        let mut sim = TileSim::new(nl);
        let mut terms = [0.0f64; TILE];
        let mut total = 0.0f64;
        let mut pos = 0;
        let n_pos = self.ordered.len();
        while pos < n_pos {
            let tcount = TILE.min(n_pos - pos);
            for (i, row) in sim.inputs_mut().chunks_exact_mut(TILE).enumerate() {
                row[..tcount].copy_from_slice(&self.input_rows[i * n_pos + pos..][..tcount]);
            }
            sim.run();
            let srcs = self.dense_srcs(outs, |sig| &sim.signal_row(sig)[..tcount]);
            self.dense_tile_terms(pos, tcount, &srcs, &mut terms);
            for &term in &terms[..tcount] {
                total += term;
                if total > raw_limit {
                    return None;
                }
            }
            pos += tcount;
        }
        Some(total)
    }

    /// Scalar reference bounded WMED: same block order, same accumulation,
    /// one operand vector at a time.
    pub(crate) fn wmed_raw_scalar(&self, nl: &Netlist, raw_limit: f64) -> Option<f64> {
        let mut sim = ScalarSim::default();
        let mut total = 0.0f64;
        for &(block, weight) in self.ordered {
            let mut err = 0u64;
            for lane in 0..64u64 {
                let v = u64::from(block) * 64 + lane;
                let exact = self.op.exact_value(self.width, self.signed, v);
                let got = interpret(self.signed, sim.run_packed(nl, self.width, v), self.out_bits);
                err += (exact - got).unsigned_abs();
            }
            total += weight * err as f64;
            if total > raw_limit {
                return None;
            }
        }
        Some(total)
    }

    /// Builds the cached full-grid state for `base` (every signal row over
    /// every weighted block position, plus the per-block error terms).
    pub(crate) fn new_state(&self, base: &Netlist) -> WmedState {
        let n_pos = self.ordered.len();
        let num_signals = base.num_signals();
        let ni = base.num_inputs();
        let mut rows = vec![0u64; num_signals * n_pos];
        rows[..ni * n_pos].copy_from_slice(&self.input_rows[..ni * n_pos]);
        let mut state = WmedState {
            rows,
            n_pos,
            num_signals,
            ni,
            gate_count: base.gate_count(),
            bulk: vec![0u64; num_signals * n_pos],
            dirty: vec![false; num_signals],
            needed: vec![false; num_signals],
            def_changed: vec![false; base.gate_count()],
            touched: Vec::with_capacity(num_signals),
            cone: Vec::with_capacity(base.gate_count()),
            sim_nodes: Vec::with_capacity(base.gate_count()),
            block_err: vec![0.0; n_pos],
            // Sentinel no real output list matches, so the first commit
            // always computes the error terms.
            out_sigs: vec![u32::MAX],
        };
        // Simulate every node over its full row; operands always precede
        // their consumer, so in-place forward order is safe.
        let all: Vec<u32> = (0..base.gate_count() as u32).collect();
        self.commit(&mut state, base, &all);
        state
    }

    /// Recomputes every cached per-block error term from the (current)
    /// cached rows under output list `outs`, and records that list.
    fn refresh_block_err(&self, state: &mut WmedState, outs: &[SignalId]) {
        let n_pos = state.n_pos;
        let mut terms = [0.0f64; TILE];
        let mut pos = 0;
        while pos < n_pos {
            let tcount = TILE.min(n_pos - pos);
            let srcs = self.dense_srcs(outs, |sig| &state.rows[sig * n_pos + pos..][..tcount]);
            self.dense_tile_terms(pos, tcount, &srcs, &mut terms);
            state.block_err[pos..pos + tcount].copy_from_slice(&terms[..tcount]);
            pos += tcount;
        }
        state.out_sigs.clear();
        state.out_sigs.extend(outs.iter().map(|o| o.index() as u32));
    }

    /// Bounded WMED of `child` against the cached state of its parent.
    ///
    /// `changed` lists the nodes whose definition differs from the state's
    /// base netlist (an empty list re-scores the base itself from cache).
    /// Only the needed part of the changed nodes' fanout cone is simulated,
    /// into the chunk grid; the cached rows are left untouched, so the
    /// state still describes the base afterwards.
    ///
    /// Set-up scales with the cone, apart from one forward scan from the
    /// first changed node: the cone and the simulated nodes go into the
    /// state's reused buffers, neededness is decided over the cone alone
    /// (see [`Self::sim_nodes`]), and every scratch flag the call sets is
    /// cleared again before it returns, on an abort too.
    ///
    /// The positions are walked in chunks ([`chunk_tiles`]): the first
    /// [`BULK_AFTER`] (highest-weight) chunks are one tile each so an early
    /// abort wastes little work, after which chunks double in size so the
    /// survivors amortize gate dispatch over long rows. Each chunk is
    /// simulated node-major, then its tiles are accumulated in position
    /// order, so every `f64` term and the abort decision match the full
    /// pass.
    ///
    /// Two prunings keep near-neutral offspring cheap without perturbing a
    /// single bit of the result:
    ///
    /// * **equality pruning** — a re-simulated row that matches the cached
    ///   base row stops the dirtiness propagation (readers use the cached
    ///   copy of the identical value);
    /// * **cached error terms** — a tile whose outputs are all clean (and
    ///   whose output list matches the base's) skips the gather/kernel work
    ///   and accumulates the stored `weight · err` terms, which are the
    ///   exact `f64` values the full path would recompute.
    pub(crate) fn wmed_raw_delta(
        &self,
        state: &mut WmedState,
        child: &Netlist,
        changed: &[u32],
        raw_limit: f64,
    ) -> Option<f64> {
        state.check_shape(child);
        debug_assert!(state.flags_clear(), "a previous call left scratch flags set");
        Self::sim_nodes(state, child, changed);
        for &k in changed {
            state.def_changed[k as usize] = true;
        }
        let total = self.delta_walk(state, child, raw_limit);
        // Leave every scratch flag clear for the next call: `def_changed`
        // as set above, and the dirty marks of the chunk an abort left.
        for &k in changed {
            state.def_changed[k as usize] = false;
        }
        for &s in &state.touched {
            state.dirty[s as usize] = false;
        }
        state.touched.clear();
        total
    }

    /// Fills `state.sim_nodes` with the nodes of `changed`'s fanout cone
    /// (in `child`) that feed an output, in netlist order.
    ///
    /// Every node that reads a cone node through a slot its gate uses is
    /// itself in the cone, so a cone node's neededness depends only on the
    /// outputs and on other cone nodes: marking the outputs and walking
    /// the cone once in reverse gives exactly the cone nodes a walk over
    /// the whole netlist would mark. The walk is branch-free (every cone
    /// node writes its list slot and keeps it only when needed), and the
    /// `needed` flags it sets (outputs, needed cone nodes and their
    /// operands) are cleared before it returns.
    fn sim_nodes(state: &mut WmedState, child: &Netlist, changed: &[u32]) {
        let ni = state.ni;
        let nodes = child.nodes();
        // `dirty` is all clear between calls, so it doubles as the cone
        // scan's scratch marks.
        fanout_cone(child, changed, &mut state.dirty, &mut state.cone);
        for o in child.outputs() {
            state.needed[o.index()] = true;
        }
        // Needed nodes fill the list from the back, so it ends up in
        // netlist order.
        let n = state.cone.len();
        state.sim_nodes.resize(n, 0);
        let mut start = n;
        for &k in state.cone.iter().rev() {
            let need = state.needed[ni + k as usize];
            let node = &nodes[k as usize];
            let arity = node.kind.arity();
            state.needed[node.a.index()] |= need & (arity >= 1);
            state.needed[node.b.index()] |= need & (arity >= 2);
            state.sim_nodes[start - 1] = k;
            start -= usize::from(need);
        }
        state.sim_nodes.drain(..start);
        for o in child.outputs() {
            state.needed[o.index()] = false;
        }
        for &k in &state.sim_nodes {
            let node = &nodes[k as usize];
            state.needed[ni + k as usize] = false;
            state.needed[node.a.index()] = false;
            state.needed[node.b.index()] = false;
        }
    }

    /// The chunk walk of [`Self::wmed_raw_delta`] over `state.sim_nodes`.
    /// Clears the dirty marks of every chunk it completes; an abort leaves
    /// the current chunk's in `state.touched`.
    fn delta_walk(&self, state: &mut WmedState, child: &Netlist, raw_limit: f64) -> Option<f64> {
        let ni = state.ni;
        let n_pos = state.n_pos;
        let outs = child.outputs();
        let terms_valid = outs.len() == state.out_sigs.len()
            && outs.iter().zip(&state.out_sigs).all(|(o, &s)| o.index() as u32 == s);
        let mut got = [0u64; MAX_PLANES];
        let mut terms = [0.0f64; TILE];
        let mut total = 0.0f64;
        let mut pos = 0;
        let mut chunk = 0;
        while pos < n_pos {
            let chunk_start = pos;
            let chunk_end = (chunk_start + chunk_tiles(chunk) * TILE).min(n_pos);
            let rest = chunk_end - chunk_start;
            chunk += 1;
            for &k in &state.sim_nodes {
                let k = k as usize;
                let node = &child.nodes()[k];
                let (a_sig, b_sig) = (node.a.index(), node.b.index());
                // Only re-simulate where the child can actually differ in
                // this chunk: a changed definition or a dirty operand.
                if !(state.def_changed[k] || state.dirty[a_sig] || state.dirty[b_sig]) {
                    continue;
                }
                let (pre, tail) = state.bulk.split_at_mut((ni + k) * rest);
                // A dirty operand's fresh row is in the chunk grid (it is
                // earlier in `sim_nodes`, so already computed); clean
                // operands read the cached base rows.
                let a = if state.dirty[a_sig] {
                    &pre[a_sig * rest..][..rest]
                } else {
                    &state.rows[a_sig * n_pos + chunk_start..][..rest]
                };
                let b = if state.dirty[b_sig] {
                    &pre[b_sig * rest..][..rest]
                } else {
                    &state.rows[b_sig * n_pos + chunk_start..][..rest]
                };
                let fresh = &mut tail[..rest];
                eval_row(node.kind, a, b, fresh);
                // Equality pruning: a row identical to the cached one need
                // not (must not, for speed) propagate dirtiness.
                if *fresh != state.rows[(ni + k) * n_pos + chunk_start..][..rest] {
                    state.dirty[ni + k] = true;
                    state.touched.push((ni + k) as u32);
                }
            }
            while pos < chunk_end {
                let tcount = TILE.min(chunk_end - pos);
                let off = pos - chunk_start;
                // Signal `sig`'s words over this tile: fresh if dirty,
                // cached otherwise.
                let src = |sig: usize| {
                    if state.dirty[sig] {
                        &state.bulk[sig * rest + off..][..tcount]
                    } else {
                        &state.rows[sig * n_pos + pos..][..tcount]
                    }
                };
                // Columns whose outputs are all bit-identical to the base
                // can accumulate the cached term (the same `f64` the kernel
                // would recompute); only genuinely differing columns pay
                // for the gather + error kernel.
                let mut col_diff: u32 = if terms_valid { 0 } else { !0 };
                if terms_valid {
                    for o in outs {
                        let sig = o.index();
                        if state.dirty[sig] {
                            let cached = &state.rows[sig * n_pos + pos..][..tcount];
                            for (t, (f, c)) in src(sig).iter().zip(cached).enumerate() {
                                col_diff |= u32::from(f != c) << t;
                            }
                            // Past the sparse cutoff the exact mask no
                            // longer matters — the dense branch kernels
                            // every column.
                            if col_diff.count_ones() > 4 {
                                break;
                            }
                        }
                    }
                }
                if col_diff == 0 {
                    // Fully clean tile: cached terms only.
                    for t in 0..tcount {
                        total += state.block_err[pos + t];
                        if total > raw_limit {
                            return None;
                        }
                    }
                } else if col_diff.count_ones() <= 4 {
                    // A few differing columns: kernel just those, cached
                    // terms for the rest.
                    for t in 0..tcount {
                        if col_diff & (1 << t) == 0 {
                            total += state.block_err[pos + t];
                        } else {
                            let (block, weight) = self.ordered[pos + t];
                            self.gather_got(&mut got, |sig| src(sig)[t], outs);
                            let exact =
                                &self.exact_planes[block as usize * self.planes..][..self.planes];
                            let err = abs_err_sum(exact, &got, self.planes);
                            total += weight * err as f64;
                        }
                        if total > raw_limit {
                            return None;
                        }
                    }
                } else {
                    // Dense tile: the kernel over in-place sources. Clean
                    // columns recompute to exactly their cached term, so no
                    // masking is needed.
                    let srcs = self.dense_srcs(outs, src);
                    self.dense_tile_terms(pos, tcount, &srcs, &mut terms);
                    for &term in &terms[..tcount] {
                        total += term;
                        if total > raw_limit {
                            return None;
                        }
                    }
                }
                pos += tcount;
            }
            // Dirtiness is per chunk; clear only what this chunk set.
            for &s in &state.touched {
                state.dirty[s as usize] = false;
            }
            state.touched.clear();
        }
        Some(total)
    }

    /// Rebases the state onto `child`: re-simulates the full fanout cone of
    /// `changed` (dead nodes included — a stale cached row for a currently
    /// dead node would poison a later delta that reactivates it) in place,
    /// with the same equality pruning as the delta path, and refreshes the
    /// cached per-block error terms when the outputs were affected. Like
    /// the delta path it fills the state's cone buffer and leaves every
    /// scratch flag clear.
    pub(crate) fn commit(&self, state: &mut WmedState, child: &Netlist, changed: &[u32]) {
        state.check_shape(child);
        debug_assert!(state.flags_clear(), "a previous call left scratch flags set");
        let ni = state.ni;
        let n_pos = state.n_pos;
        fanout_cone(child, changed, &mut state.dirty, &mut state.cone);
        for &k in changed {
            state.def_changed[k as usize] = true;
        }
        // `dirty` marks rows that actually changed; propagation stops at
        // rows that re-simulate to their cached value. The re-simulation is
        // one fused in-place pass per node (operand signals always precede
        // their consumer, so splitting the row grid at the node's own row
        // borrows both cleanly): the fresh value overwrites the cached row
        // while the xor against the old value detects a change, instead of
        // simulating into a scratch row, comparing, and copying back.
        for &k in &state.cone {
            let k = k as usize;
            let node = &child.nodes()[k];
            if !(state.def_changed[k] || state.dirty[node.a.index()] || state.dirty[node.b.index()])
            {
                continue;
            }
            let (pre, tail) = state.rows.split_at_mut((ni + k) * n_pos);
            let a = &pre[node.a.index() * n_pos..][..n_pos];
            let b = &pre[node.b.index() * n_pos..][..n_pos];
            if eval_row_diff(node.kind, a, b, &mut tail[..n_pos]) {
                state.dirty[ni + k] = true;
            }
        }
        let outs = child.outputs();
        let terms_valid = outs.len() == state.out_sigs.len()
            && outs.iter().zip(&state.out_sigs).all(|(o, &s)| o.index() as u32 == s);
        if !terms_valid || outs.iter().any(|o| state.dirty[o.index()]) {
            self.refresh_block_err(state, outs);
        }
        for &k in changed {
            state.def_changed[k as usize] = false;
        }
        for &k in &state.cone {
            state.dirty[ni + k as usize] = false;
        }
    }
}

#[inline]
fn interpret(signed: bool, raw: u64, bits: u32) -> i64 {
    if signed {
        apx_arith::sign_extend(raw, bits)
    } else {
        raw as i64
    }
}

/// Cached full-grid simulation state for incremental WMED re-evaluation.
///
/// Created by [`crate::CircuitEvaluator::new_state`] for a *base* netlist;
/// [`crate::CircuitEvaluator::wmed_bounded_delta`] scores children against
/// it without touching the cache, and
/// [`crate::CircuitEvaluator::commit_state`] rebases it when a child is
/// promoted. The contract: the state always holds, for every signal of the
/// base netlist and every weighted block, the exact simulation word — so a
/// delta only ever recomputes the changed nodes' fanout cone.
///
/// Besides the cache, the state owns every buffer a delta or a commit
/// needs — the chunk grid, the cone and simulated-node lists and the
/// per-signal and per-node scratch flags — so neither allocates. The
/// flags are all clear between calls; each call clears exactly the ones
/// it set instead of filling whole arrays.
pub struct WmedState {
    /// `rows[sig · n_pos + pos]`: signal `sig`'s word at weighted block
    /// position `pos` (positions index the evaluator's `ordered_blocks`).
    rows: Vec<u64>,
    n_pos: usize,
    num_signals: usize,
    ni: usize,
    gate_count: usize,
    /// Chunk grid for the delta path: `bulk[sig · rest + off]` is dirty
    /// signal `sig`'s fresh word at offset `off` of the current chunk of
    /// `rest` positions (valid only where `dirty` is set).
    bulk: Vec<u64>,
    dirty: Vec<bool>,
    needed: Vec<bool>,
    /// Per-node scratch flag: definition differs from the base.
    def_changed: Vec<bool>,
    /// Signals marked dirty in the current chunk (for cheap clearing).
    touched: Vec<u32>,
    /// The fanout cone of the current call's changed nodes.
    cone: Vec<u32>,
    /// The cone nodes that feed an output: what the delta walk simulates.
    sim_nodes: Vec<u32>,
    /// `weight · err` of the base at each block position — the exact `f64`
    /// terms the accumulation loop adds, so clean tiles skip the kernel.
    block_err: Vec<f64>,
    /// The output signal list `block_err` was computed under.
    out_sigs: Vec<u32>,
}

impl WmedState {
    fn check_shape(&self, nl: &Netlist) {
        assert_eq!(nl.num_inputs(), self.ni, "state/netlist input arity mismatch");
        assert_eq!(nl.gate_count(), self.gate_count, "state/netlist gate count mismatch");
        assert_eq!(nl.num_signals(), self.num_signals, "state/netlist signal count mismatch");
    }

    /// Whether every scratch flag is clear, as it must be between calls.
    fn flags_clear(&self) -> bool {
        let clear = |flags: &[bool]| flags.iter().all(|&f| !f);
        clear(&self.dirty) && clear(&self.needed) && clear(&self.def_changed)
    }

    /// Approximate heap footprint in bytes (dominated by the cached rows).
    #[must_use]
    pub fn bytes(&self) -> usize {
        Self::footprint(self.num_signals, self.gate_count, self.n_pos)
    }

    /// Heap footprint of a state over `num_signals` signals, `gate_count`
    /// gates and `n_pos` weighted block positions: the cached rows, the
    /// chunk grid and the per-position error terms (8 bytes per word), one
    /// flag byte per signal (`dirty`, `needed`) and per gate
    /// (`def_changed`), and the index lists (4 bytes per entry: `touched`
    /// per signal, `cone` and `sim_nodes` per gate).
    pub(crate) fn footprint(num_signals: usize, gate_count: usize, n_pos: usize) -> usize {
        (2 * num_signals * n_pos + n_pos) * 8
            + 2 * num_signals
            + gate_count
            + 4 * (num_signals + 2 * gate_count)
    }
}

impl std::fmt::Debug for WmedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WmedState")
            .field("num_signals", &self.num_signals)
            .field("n_pos", &self.n_pos)
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Scalar reference interpreter: evaluates one operand pair per call on a
/// reusable `bool` buffer.
#[derive(Debug, Default)]
pub(crate) struct ScalarSim {
    vals: Vec<bool>,
}

impl ScalarSim {
    /// Packed output of `nl` on enumeration vector `v` (netlist input
    /// `i < w` — the weighted operand — reads enumeration bit `free + i`
    /// where `free = ni − w`; every later input `i ≥ w` reads bit `i − w`
    /// — the same top/bottom operand split the bit-parallel path uses).
    pub(crate) fn run_packed(&mut self, nl: &Netlist, width: u32, v: u64) -> u64 {
        let w = width as usize;
        let ni = nl.num_inputs();
        let free = ni - w;
        self.vals.clear();
        self.vals.resize(nl.num_signals(), false);
        for i in 0..ni {
            let ebit = if i < w { free + i } else { i - w };
            self.vals[i] = (v >> ebit) & 1 == 1;
        }
        for (k, node) in nl.nodes().iter().enumerate() {
            let a = self.vals[node.a.index()];
            let b = self.vals[node.b.index()];
            self.vals[ni + k] = node.kind.eval_bool(a, b);
        }
        nl.outputs().iter().enumerate().map(|(j, o)| u64::from(self.vals[o.index()]) << j).sum()
    }
}

/// Backend-dispatched per-lane output reader for the exhaustive statistics
/// paths (`stats`, `error_matrix`, the small-domain WMED loop).
///
/// Fills a lane buffer with the packed output value of every lane of a
/// block; both interpreters produce identical buffers, which is what makes
/// the statistics surfaces backend-agnostic bit for bit. The scalar
/// backend reads lanes one vector at a time. Every other backend
/// simulates the tile of [`TILE`] blocks that holds the requested block on
/// a [`TileSim`] and serves the tile's blocks from it, so a pass in block
/// order dispatches each live gate once per 16 blocks. These paths are
/// exhaustive by definition, so the symbolic backend has nothing to
/// model-count here.
pub(crate) struct LaneReader<'n> {
    nl: &'n Netlist,
    width: u32,
    ex: Exhaustive,
    /// The tiled simulator; `None` on the scalar backend.
    tiles: Option<TileSim<'n>>,
    /// First block of the tile `tiles` holds (`usize::MAX` before any).
    first: usize,
    /// One block's output words, unpacked into the lane buffer.
    words: Vec<u64>,
    scalar: ScalarSim,
}

impl<'n> LaneReader<'n> {
    /// A reader over the enumeration `ex` of `nl`, whose first `width`
    /// inputs are the distribution operand (the top enumeration bits).
    pub(crate) fn new(backend: EvalBackend, nl: &'n Netlist, ex: Exhaustive, width: u32) -> Self {
        let tiles = (backend != EvalBackend::Scalar).then(|| TileSim::new(nl));
        LaneReader {
            nl,
            width,
            ex,
            tiles,
            first: usize::MAX,
            words: vec![0u64; nl.num_outputs()],
            scalar: ScalarSim::default(),
        }
    }

    /// Reads all lanes of `block` into `lane_buf[..lanes]`.
    pub(crate) fn read_block(&mut self, block: usize, lane_buf: &mut [u64]) {
        let lanes = self.ex.lanes_per_block();
        match &mut self.tiles {
            Some(sim) => {
                let first = block - block % TILE;
                if first != self.first {
                    sim.load_blocks(&self.ex, first, self.width as usize);
                    sim.run();
                    self.first = first;
                }
                sim.output_column(block - first, &mut self.words);
                unpack_lanes(&self.words, lanes, lane_buf);
            }
            None => {
                for (lane, slot) in lane_buf.iter_mut().enumerate().take(lanes) {
                    let v = (block * 64 + lane) as u64;
                    *slot = self.scalar.run_packed(self.nl, self.width, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_err_sum_matches_per_lane_subtraction() {
        // Random P-bit two's-complement pairs whose difference fits P bits.
        let mut rng = apx_rng::Xoshiro256::from_seed(99);
        for planes in [5usize, 13, 17, MAX_PLANES] {
            let half = 1i64 << (planes - 1);
            let mut exact = [0u64; MAX_PLANES];
            let mut got = [0u64; MAX_PLANES];
            let mut expect = 0u64;
            for lane in 0..64u64 {
                // Pick e, g with |e - g| < 2^(P-1) so the difference fits.
                let e = rng.gen_range(half as usize) as i64 - half / 2;
                let g = e + (rng.gen_range(half as usize) as i64 - half / 2) / 2;
                expect += (e - g).unsigned_abs();
                for k in 0..planes {
                    exact[k] |= (((e as u64) >> k) & 1) << lane;
                    got[k] |= (((g as u64) >> k) & 1) << lane;
                }
            }
            assert_eq!(abs_err_sum(&exact, &got, planes), expect, "planes={planes}");
        }
    }

    #[test]
    fn tile_terms_match_abs_err_sum_per_column() {
        // Every plane count and every tail length, through the dense-tile
        // entry point (so tail tiles take the zero-padding copy): each
        // column's term must be exactly the per-column kernel's.
        let mut rng = apx_rng::Xoshiro256::from_seed(7);
        for planes in 2..=MAX_PLANES {
            for tcount in 1..=TILE {
                let ordered: Vec<(u32, f64)> =
                    (0..tcount as u32).map(|block| (block, 1.0 + rng.f64())).collect();
                let exact_planes: Vec<u64> = (0..tcount * planes).map(|_| rng.next_u64()).collect();
                let mut exact_tiles = vec![0u64; planes * TILE];
                for t in 0..tcount {
                    for k in 0..planes {
                        exact_tiles[k * TILE + t] = exact_planes[t * planes + k];
                    }
                }
                let got: Vec<Vec<u64>> =
                    (0..planes).map(|_| (0..tcount).map(|_| rng.next_u64()).collect()).collect();
                let mut srcs: [&[u64]; MAX_PLANES] = [&ZERO_TILE; MAX_PLANES];
                for (s, g) in srcs.iter_mut().zip(&got) {
                    *s = g;
                }
                let ctx = EngineCtx {
                    op: Operator::Mul,
                    width: 1,
                    signed: false,
                    out_bits: planes as u32 - 1,
                    ordered: &ordered,
                    exact_planes: &exact_planes,
                    exact_tiles: &exact_tiles,
                    input_rows: &[],
                    planes,
                };
                let mut terms = [0.0f64; TILE];
                ctx.dense_tile_terms(0, tcount, &srcs, &mut terms);
                for (t, &(_, weight)) in ordered.iter().enumerate() {
                    let column: Vec<u64> = got.iter().map(|g| g[t]).collect();
                    let err = abs_err_sum(&exact_planes[t * planes..][..planes], &column, planes);
                    assert_eq!(
                        terms[t].to_bits(),
                        (weight * err as f64).to_bits(),
                        "planes={planes} tail={tcount} column={t}"
                    );
                }
            }
        }
    }
}
