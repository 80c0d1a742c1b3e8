//! The CGP hot path: exhaustive WMED evaluation of arithmetic netlists
//! (multipliers, adders, MACs — any [`Operator`]).
//!
//! Evaluation is organized around the engines in [`crate::engine`]: a
//! bit-parallel simulator that walks the nodes in netlist order and
//! processes 64 operand pairs per gate op (tiled over blocks so gate
//! dispatch amortizes), a bit-sliced error kernel that sums
//! `|exact − got|` directly on output bit-planes, and an incremental mode
//! that re-simulates only the fanout cone of a mutation against cached
//! signal rows. A scalar one-pair-at-a-time reference
//! interpreter sits behind the same API as [`EvalBackend::Scalar`], and a
//! symbolic ROBDD model-counting engine ([`crate::symbolic`]) behind
//! [`EvalBackend::Symbolic`]; all backends are bit-identical by
//! construction at the widths they share. Past the exhaustive cap the
//! evaluation goes row by row ([`crate::rows`]): the bit-parallel
//! backend streams multipliers' weighted rows, the symbolic one
//! model-counts adders' and MACs' rows, and one f64 replay serves both.

pub use crate::engine::WmedState;
use crate::engine::{EngineCtx, LaneReader, MAX_PLANES};
use crate::rows::{RowCtx, WIDE_PLANES};
use crate::stats::ErrorStats;
use apx_arith::{sign_extend, EvalBackend, Operator};
use apx_dist::Pmf;
use apx_gates::{Exhaustive, Netlist};
use std::fmt;

/// Error constructing a [`CircuitEvaluator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvaluatorError {
    /// Operand width outside the operator's evaluable range *on the
    /// requested backend* — the exhaustive cap (`1..=10` for `mul`/`add`,
    /// `1..=4` for `mac`) on `scalar` and for `add`/`mac` on `bitpar`;
    /// `1..=16` for `mul` on `bitpar`, which streams its weighted rows past
    /// the cap; `1..=16` for `mul`/`add` and `1..=8` for `mac` on
    /// `symbolic` (see [`Operator::supports_width`]).
    BadWidth {
        /// The operator whose budget was exceeded.
        op: Operator,
        /// The rejected operand width.
        width: u32,
        /// The backend whose evaluable range was exceeded.
        backend: EvalBackend,
    },
    /// The PMF is defined over a different operand width.
    PmfWidthMismatch {
        /// Evaluator operand width.
        width: u32,
        /// PMF width.
        pmf_width: u32,
    },
}

impl fmt::Display for EvaluatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluatorError::BadWidth { op, width, backend } => {
                write!(
                    f,
                    "operand width {width} outside the {op} operator's evaluable range \
                     on the {backend} backend"
                )
            }
            EvaluatorError::PmfWidthMismatch { width, pmf_width } => {
                write!(f, "pmf width {pmf_width} does not match operand width {width}")
            }
        }
    }
}

impl std::error::Error for EvaluatorError {}

/// Exhaustive error evaluator for `width`-bit arithmetic netlists —
/// multipliers by default, any [`Operator`] via
/// [`CircuitEvaluator::for_operator`] — under a data distribution `D` on
/// the first operand.
///
/// Built once per (operator, width, signedness, distribution) and reused
/// for every candidate circuit of a CGP run. The evaluator
///
/// * scores candidates against the operator's reference function
///   ([`Operator::exact_value`] — `x·y` for `mul`, `x+y` for `add`, the
///   wrap-around `acc + x·y` for `mac`);
/// * enumerates input vectors with the distribution operand in the **high**
///   bits, so whenever the remaining ("free") operand bits fill a 64-lane
///   simulation block (`free >= 6` — `width >= 6` for multipliers) each
///   block has a single `x` value and a single weight `D(x)`;
/// * pre-sorts blocks by decreasing weight and skips zero-weight blocks;
/// * simulates on one of three [`EvalBackend`]s — the bit-parallel engine
///   (tiled 64-lane simulation plus a bit-sliced error kernel that never
///   unpacks lanes), the scalar reference interpreter, or the symbolic
///   ROBDD model counter, which skips enumeration for WMED wherever a
///   weighted row fills whole blocks (`free >= 6`). Within the exhaustive
///   cap the per-lane surfaces (full [`CircuitEvaluator::stats`],
///   [`CircuitEvaluator::error_matrix`], WMED at `free < 6`) enumerate on
///   every backend, the symbolic one reading lanes like the bit-parallel
///   one. The operator and width pick the backend ([`Operator::backend`]:
///   bit-parallel for every multiplier and wherever enumeration fits,
///   symbolic for adders and MACs beyond);
///   [`CircuitEvaluator::with_backend`] forces one for cross-checks. All
///   produce bit-identical results at the widths they share;
/// * past the exhaustive cap (12×12/16×16 multipliers and adders, 8-bit
///   MACs) evaluates row by row: the bit-parallel backend streams each
///   weighted row's blocks through the candidate against exact planes it
///   builds from [`Operator::exact_value`] (affine within a row), and the
///   symbolic one model-counts each row's BDDs against the exact seed
///   circuit's. Either way the evaluator holds only the weights, the
///   weight-sorted rows and, on the symbolic backend, the seed — nothing
///   sized by the `2^inputs` domain — and both feed the same per-row f64
///   replay;
/// * offers [`CircuitEvaluator::wmed_bounded`], which abandons a candidate as
///   soon as its running weighted error exceeds the fitness threshold
///   (Eq. 1 only needs the comparison, not the exact value), and an
///   incremental variant ([`CircuitEvaluator::wmed_bounded_delta`]) that
///   re-simulates only a mutation's fanout cone against a cached
///   [`WmedState`].
///
/// # WMED definition
///
/// With `x` drawn from `D` and `y` uniform, the paper's Eq. 2 normalized by
/// the output range is
///
/// ```text
/// WMED_D(M̃) = Σ_x D(x) · Σ_y |x·y − M̃(x,y)|  /  (2^w · 2^(2w))
/// ```
///
/// For a general operator the shape is the same with `y` ranging over all
/// *free* (non-distribution) input bits and the normalizer being
/// `2^free · 2^out_bits` — the metric stays in `[0, 1)` for every
/// operator, so thresholds compose across component classes.
///
/// The engine accumulates the inner sum per 64-lane block as an exact
/// integer and applies `D(x)` once per block, so the only floating-point
/// operations are one multiply-add per block — in a fixed (weight-sorted)
/// order that every backend and the incremental path share. Past the
/// exhaustive cap the exact integer is a whole row's, and the one
/// multiply-add is per row.
///
/// # Examples
///
/// ```
/// use apx_arith::{array_multiplier, truncated_multiplier};
/// use apx_dist::Pmf;
/// use apx_metrics::CircuitEvaluator;
///
/// let eval = CircuitEvaluator::new(8, false, &Pmf::half_normal(8, 48.0))?;
/// assert_eq!(eval.wmed(&array_multiplier(8)), 0.0);
/// assert!(eval.wmed(&truncated_multiplier(8, 8)) > 0.0);
/// # Ok::<(), apx_metrics::EvaluatorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CircuitEvaluator {
    op: Operator,
    width: u32,
    signed: bool,
    /// Total netlist input bits: `op.num_inputs(width)`.
    ni: usize,
    /// Netlist output bits: `op.num_outputs(width)`.
    out_bits: u32,
    /// Input bits below the distribution operand (`ni - width`): the part
    /// of the enumeration a single `D(x)` weight spans.
    free: u32,
    weights: Vec<f64>,
    ex: Exhaustive,
    backend: EvalBackend,
    /// `(block index, weight of the block's x value)`, zero-weight blocks
    /// removed, sorted by decreasing weight. Empty for `free < 6` (the
    /// whole domain fits one block; weights are applied per lane instead)
    /// and for the per-row engines (which never materialize per-block
    /// state — see `ordered_x`).
    ordered_blocks: Vec<(u32, f64)>,
    /// The per-row engines' twin of `ordered_blocks`: `(raw x encoding,
    /// weight)`, zero weights removed, stable-sorted by decreasing weight.
    /// Visiting each `x`'s blocks in ascending order flattens to exactly
    /// the `ordered_blocks` sequence, which is what makes the backends'
    /// accumulation orders identical. Built for `free >= 6` on
    /// [`EvalBackend::Symbolic`] and past the exhaustive cap.
    ordered_x: Vec<(u32, f64)>,
    /// The operator's exact seed circuit — the reference the symbolic
    /// engine compiles next to each candidate. Built alongside `ordered_x`
    /// on [`EvalBackend::Symbolic`] only: the streamed rows of the
    /// bit-parallel backend take their reference from
    /// [`Operator::exact_value`].
    seed: Option<Netlist>,
    /// Error-kernel planes: `out_bits + 1` (difference of an exact value
    /// and a sign-extended output always fits that many two's-complement
    /// bits).
    planes: usize,
    /// `exact_planes[block·planes + k]`: bit-plane `k` of the exact products
    /// of `block`'s 64 lanes. Precomputed only for the bit-parallel backend
    /// at `free >= 6` up to the exhaustive cap; empty otherwise.
    exact_planes: Vec<u64>,
    /// `exact_tiles[(tile·planes + k)·TILE + t]`: the same exact planes
    /// rearranged tile-major in weighted-position order, so the column-major
    /// error kernel reads them contiguously. Built alongside `exact_planes`.
    exact_tiles: Vec<u64>,
    /// `input_rows[i·n_pos + pos]`: netlist input `i`'s simulation word at
    /// weighted block position `pos` — hoists the per-tile `input_word`
    /// lookups out of the hot loop. Built alongside `exact_planes`.
    input_rows: Vec<u64>,
    /// Normalizer `1 / (2^free · 2^out_bits)`.
    norm: f64,
}

impl CircuitEvaluator {
    /// Creates an evaluator for `width`-bit (optionally signed) multipliers
    /// weighted by `pmf` on the first operand, on the backend operator and
    /// width pick ([`Operator::backend`]: bit-parallel at every width).
    ///
    /// # Errors
    ///
    /// Returns [`EvaluatorError`] on unsupported widths or a PMF of the
    /// wrong width.
    pub fn new(width: u32, signed: bool, pmf: &Pmf) -> Result<Self, EvaluatorError> {
        Self::for_operator(Operator::Mul, width, signed, pmf)
    }

    /// Creates an evaluator for `width`-bit circuits of an arbitrary
    /// [`Operator`], on the backend operator and width pick
    /// ([`Operator::backend`]). This is the constructor the sweep, library
    /// and orchestrator flows share.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluatorError`] on a width outside the operator's
    /// evaluable range or a PMF of the wrong width.
    ///
    /// # Examples
    ///
    /// ```
    /// use apx_arith::{lower_or_adder, Operator};
    /// use apx_dist::Pmf;
    /// use apx_metrics::CircuitEvaluator;
    ///
    /// let eval =
    ///     CircuitEvaluator::for_operator(Operator::Add, 8, false, &Pmf::half_normal(8, 48.0))?;
    /// assert_eq!(eval.wmed(&lower_or_adder(8, 0)), 0.0);
    /// assert!(eval.wmed(&lower_or_adder(8, 4)) > 0.0);
    /// # Ok::<(), apx_metrics::EvaluatorError>(())
    /// ```
    pub fn for_operator(
        op: Operator,
        width: u32,
        signed: bool,
        pmf: &Pmf,
    ) -> Result<Self, EvaluatorError> {
        Self::for_operator_with_backend(op, width, signed, pmf, op.backend(width))
    }

    /// Creates a multiplier evaluator on an explicitly chosen
    /// [`EvalBackend`] instead of the one the width picks. This is how
    /// tests reach the reference backends (`scalar`, and `symbolic` at
    /// every width) to compare them with the bit-parallel one.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluatorError`] on unsupported widths or a PMF of the
    /// wrong width.
    ///
    /// # Examples
    ///
    /// The backends agree bit for bit:
    ///
    /// ```
    /// use apx_arith::truncated_multiplier;
    /// use apx_dist::Pmf;
    /// use apx_metrics::{EvalBackend, CircuitEvaluator};
    ///
    /// let pmf = Pmf::half_normal(6, 12.0);
    /// let fast = CircuitEvaluator::with_backend(6, false, &pmf, EvalBackend::BitParallel)?;
    /// let slow = CircuitEvaluator::with_backend(6, false, &pmf, EvalBackend::Scalar)?;
    /// let nl = truncated_multiplier(6, 5);
    /// assert_eq!(fast.wmed(&nl).to_bits(), slow.wmed(&nl).to_bits());
    /// # Ok::<(), apx_metrics::EvaluatorError>(())
    /// ```
    pub fn with_backend(
        width: u32,
        signed: bool,
        pmf: &Pmf,
        backend: EvalBackend,
    ) -> Result<Self, EvaluatorError> {
        Self::for_operator_with_backend(Operator::Mul, width, signed, pmf, backend)
    }

    /// Creates an operator-aware evaluator on an explicitly chosen
    /// [`EvalBackend`] (see [`CircuitEvaluator::with_backend`]).
    ///
    /// # Errors
    ///
    /// Returns [`EvaluatorError`] on a width outside the operator's
    /// evaluable range or a PMF of the wrong width.
    pub fn for_operator_with_backend(
        op: Operator,
        width: u32,
        signed: bool,
        pmf: &Pmf,
        backend: EvalBackend,
    ) -> Result<Self, EvaluatorError> {
        if !op.supports_width(width, backend) {
            return Err(EvaluatorError::BadWidth { op, width, backend });
        }
        if pmf.width() != width {
            return Err(EvaluatorError::PmfWidthMismatch { width, pmf_width: pmf.width() });
        }
        let ni = op.num_inputs(width);
        let out_bits = op.num_outputs(width) as u32;
        let free = (ni - width as usize) as u32;
        let ex = Exhaustive::new(ni);
        let weights: Vec<f64> = pmf.iter().collect();
        let past_cap = !op.supports_exhaustive_width(width);
        let mut ordered_blocks = Vec::new();
        let mut ordered_x = Vec::new();
        let mut seed = None;
        if free >= 6 {
            if backend == EvalBackend::Symbolic || past_cap {
                // Per-x ordering only: past the cap the per-block list
                // would be astronomically large (2^26 blocks for a 16-bit
                // multiplier), and both per-row engines derive block sums
                // one row at a time anyway.
                ordered_x = weights
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w > 0.0)
                    .map(|(x, &w)| (x as u32, w))
                    .collect::<Vec<_>>();
                ordered_x.sort_by(|a, b| b.1.total_cmp(&a.1));
                if backend == EvalBackend::Symbolic {
                    seed = Some(op.seed_circuit(width, signed));
                }
            } else {
                let blocks_per_x = 1u32 << (free - 6);
                for block in 0..ex.num_blocks() as u32 {
                    let x_raw = (block / blocks_per_x) as usize;
                    let w = weights[x_raw];
                    if w > 0.0 {
                        ordered_blocks.push((block, w));
                    }
                }
                ordered_blocks.sort_by(|a, b| b.1.total_cmp(&a.1));
            }
        }
        let planes = out_bits as usize + 1;
        // The per-block error kernels cap their plane count at MAX_PLANES
        // and the streamed row kernel at WIDE_PLANES (a width-16 product
        // needs 33); the symbolic engine has no such limit.
        debug_assert!(match backend {
            EvalBackend::Symbolic => true,
            _ if past_cap => planes <= WIDE_PLANES,
            _ => planes <= MAX_PLANES,
        });
        let norm = 1.0 / ((1u64 << free) as f64 * (1u64 << out_bits) as f64);
        let mut eval = CircuitEvaluator {
            op,
            width,
            signed,
            ni,
            out_bits,
            free,
            weights,
            ex,
            backend,
            ordered_blocks,
            ordered_x,
            seed,
            planes,
            exact_planes: Vec::new(),
            exact_tiles: Vec::new(),
            input_rows: Vec::new(),
            norm,
        };
        if free >= 6 && backend == EvalBackend::BitParallel && !past_cap {
            eval.exact_planes = eval.build_exact_planes();
            eval.exact_tiles = eval.build_exact_tiles();
            eval.input_rows = eval.build_input_rows();
        }
        Ok(eval)
    }

    /// Tile-major copy of the exact planes in weighted-position order (see
    /// `exact_tiles`).
    fn build_exact_tiles(&self) -> Vec<u64> {
        use apx_gates::TILE;
        let n_pos = self.ordered_blocks.len();
        let n_tiles = n_pos.div_ceil(TILE);
        let mut tiles = vec![0u64; n_tiles * self.planes * TILE];
        for (pos, &(block, _)) in self.ordered_blocks.iter().enumerate() {
            let (tile, t) = (pos / TILE, pos % TILE);
            let src = &self.exact_planes[block as usize * self.planes..][..self.planes];
            for (k, &word) in src.iter().enumerate() {
                tiles[(tile * self.planes + k) * TILE + t] = word;
            }
        }
        tiles
    }

    /// Position-ordered input simulation words (see `input_rows`).
    ///
    /// Netlist input `i` maps to enumeration bit `free + i` for the
    /// distribution operand (`i < width`) and `i - width` for everything
    /// below it — which puts `a` in the top `width` enumeration bits for
    /// every operator (the [`Operator::exact_value`] layout).
    fn build_input_rows(&self) -> Vec<u64> {
        let w = self.width as usize;
        let n_pos = self.ordered_blocks.len();
        let mut rows = vec![0u64; self.ni * n_pos];
        for i in 0..self.ni {
            let ebit = if i < w { self.free as usize + i } else { i - w };
            for (pos, &(block, _)) in self.ordered_blocks.iter().enumerate() {
                rows[i * n_pos + pos] = self.ex.input_word(ebit, block as usize);
            }
        }
        rows
    }

    /// Bit-sliced exact (reference) values for every block (see
    /// `exact_planes`).
    fn build_exact_planes(&self) -> Vec<u64> {
        let mut planes = vec![0u64; self.ex.num_blocks() * self.planes];
        for (block, chunk) in planes.chunks_exact_mut(self.planes).enumerate() {
            for lane in 0..64u64 {
                let v = (block as u64) * 64 + lane;
                let p = self.op.exact_value(self.width, self.signed, v) as u64;
                for (k, word) in chunk.iter_mut().enumerate() {
                    *word |= ((p >> k) & 1) << lane;
                }
            }
        }
        planes
    }

    /// The operator this evaluator scores candidates against.
    #[must_use]
    pub fn operator(&self) -> Operator {
        self.op
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether operands/results are interpreted as two's complement.
    #[must_use]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// The simulation backend this evaluator runs on.
    #[must_use]
    pub fn backend(&self) -> EvalBackend {
        self.backend
    }

    /// The distribution weights, one per raw weighted-operand encoding —
    /// exactly the table the WMED summation applies, so static analyses
    /// (e.g. `apx_verify`'s bound brackets) can reason about the same
    /// numbers this evaluator will report.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn check_arity(&self, netlist: &Netlist) {
        assert_eq!(
            netlist.num_inputs(),
            self.ni,
            "a width-{} {} netlist must have {} inputs",
            self.width,
            self.op,
            self.ni
        );
        assert_eq!(
            netlist.num_outputs(),
            self.out_bits as usize,
            "a width-{} {} netlist must have {} outputs",
            self.width,
            self.op,
            self.out_bits
        );
    }

    fn ctx(&self) -> EngineCtx<'_> {
        EngineCtx {
            op: self.op,
            width: self.width,
            signed: self.signed,
            out_bits: self.out_bits,
            ordered: &self.ordered_blocks,
            exact_planes: &self.exact_planes,
            exact_tiles: &self.exact_tiles,
            input_rows: &self.input_rows,
            planes: self.planes,
        }
    }

    fn row_ctx(&self) -> RowCtx<'_> {
        RowCtx {
            op: self.op,
            width: self.width,
            signed: self.signed,
            out_bits: self.out_bits,
            free: self.free,
            planes: self.planes,
            ordered_x: &self.ordered_x,
            weights: &self.weights,
            seed: self.seed.as_ref(),
        }
    }

    /// Whether the width is past the exhaustive cap, where every
    /// evaluation goes row by row ([`crate::rows`]).
    fn past_cap(&self) -> bool {
        !self.op.supports_exhaustive_width(self.width)
    }

    #[inline]
    fn interpret(&self, raw: u64, bits: u32) -> i64 {
        if self.signed {
            sign_extend(raw, bits)
        } else {
            raw as i64
        }
    }

    /// Exact WMED of `netlist` under the evaluator's distribution.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have the operator’s input/output arity.
    #[must_use]
    pub fn wmed(&self, netlist: &Netlist) -> f64 {
        self.wmed_impl(netlist, f64::INFINITY).expect("unbounded evaluation always completes")
    }

    /// WMED with early abort: returns `None` as soon as the running
    /// weighted error proves the result exceeds `limit`.
    ///
    /// This is the fitness primitive of Eq. 1 — most offspring violate the
    /// error budget and are rejected after a handful of high-weight blocks.
    /// `f64::INFINITY` never aborts; `f64::NEG_INFINITY`, like any negative
    /// limit, aborts at the first term.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have the operator’s input/output
    /// arity, or if `limit` is NaN.
    #[must_use]
    pub fn wmed_bounded(&self, netlist: &Netlist, limit: f64) -> Option<f64> {
        self.wmed_impl(netlist, limit)
    }

    /// `limit` in normalized units -> the raw weighted-error budget the
    /// engines compare their running totals against.
    fn raw_limit(&self, limit: f64) -> f64 {
        assert!(!limit.is_nan(), "WMED limit is NaN");
        limit / self.norm
    }

    fn wmed_impl(&self, netlist: &Netlist, limit: f64) -> Option<f64> {
        self.check_arity(netlist);
        let raw_limit = self.raw_limit(limit);
        if self.free >= 6 {
            let total = match self.backend {
                EvalBackend::BitParallel if self.past_cap() => {
                    self.row_ctx().streamed_wmed_raw(netlist, raw_limit)?
                }
                EvalBackend::BitParallel => self.ctx().wmed_raw_bitpar(netlist, raw_limit)?,
                EvalBackend::Scalar => self.ctx().wmed_raw_scalar(netlist, raw_limit)?,
                EvalBackend::Symbolic => {
                    self.row_ctx().symbolic_wmed_raw(netlist, raw_limit, !self.past_cap())?
                }
            };
            return Some(total * self.norm);
        }
        // Small domain: weights vary per lane inside the block(s); every
        // backend feeds the same per-lane loop via `LaneReader`.
        let lanes = self.ex.lanes_per_block();
        let mut reader = LaneReader::new(self.backend, netlist, self.ex, self.width);
        let mut lane_buf = vec![0u64; 64];
        let mut total = 0.0f64;
        for block in 0..self.ex.num_blocks() {
            reader.read_block(block, &mut lane_buf);
            let base = (block * 64) as u64;
            for (lane, &out_raw) in lane_buf.iter().enumerate().take(lanes) {
                let v = base + lane as u64;
                let x_raw = v >> self.free;
                let weight = self.weights[x_raw as usize];
                if weight == 0.0 {
                    continue;
                }
                let exact = self.op.exact_value(self.width, self.signed, v);
                let got = self.interpret(out_raw, self.out_bits);
                total += weight * (exact - got).unsigned_abs() as f64;
            }
            if total > raw_limit {
                return None;
            }
        }
        // total = Σ_x D(x) Σ_free |err|; WMED = total / (2^free · 2^out) = total·norm.
        Some(total * self.norm)
    }

    /// Whether this evaluator can run the incremental (delta) protocol.
    ///
    /// Incremental re-evaluation needs the bit-parallel backend and
    /// block-granular weighting (`free >= 6` — below that, the whole
    /// domain is one block and a full pass is already trivial) within the
    /// exhaustive cap: the delta engine caches and accumulates per block,
    /// while past the cap the contract is per row.
    #[must_use]
    pub fn supports_incremental(&self) -> bool {
        self.free >= 6 && self.backend == EvalBackend::BitParallel && !self.past_cap()
    }

    /// Heap footprint a [`WmedState`] for `netlist` would need, in bytes.
    ///
    /// Callers use this to cap memory before opting into the incremental
    /// protocol (the state caches every signal row over every weighted
    /// block).
    #[must_use]
    pub fn state_bytes(&self, netlist: &Netlist) -> usize {
        WmedState::footprint(netlist.num_signals(), netlist.gate_count(), self.ordered_blocks.len())
    }

    /// Builds the cached full-grid simulation state for `base`.
    ///
    /// # Panics
    ///
    /// Panics if the evaluator does not
    /// [support incremental evaluation](CircuitEvaluator::supports_incremental)
    /// or on netlist arity mismatch.
    #[must_use]
    pub fn new_state(&self, base: &Netlist) -> WmedState {
        assert!(self.supports_incremental(), "incremental mode unavailable on this evaluator");
        self.check_arity(base);
        self.ctx().new_state(base)
    }

    /// Bounded WMED of `child` evaluated incrementally against `state`.
    ///
    /// `changed` lists the node indices whose definition differs from the
    /// state's base netlist (`child` must have the same shape; its outputs
    /// may differ). Only the needed part of the changed nodes' fanout cone
    /// is re-simulated; the cached rows are not modified, so the state
    /// keeps describing the base (call [`CircuitEvaluator::commit_state`]
    /// to rebase). An empty `changed` re-scores the base itself straight
    /// from the cache.
    ///
    /// The call's set-up scales with the cone, apart from one forward scan
    /// from the first changed node: the cone and the nodes to simulate go
    /// into buffers the state owns, which cone nodes feed an output is
    /// decided over the cone alone, and every scratch flag the call sets
    /// is cleared before it returns (an early abort included). Nothing is
    /// allocated per call.
    ///
    /// The result — including the abort decision — is bit-identical to
    /// [`CircuitEvaluator::wmed_bounded`] on `child`.
    ///
    /// # Panics
    ///
    /// Panics on arity/shape mismatch, if the evaluator does not support
    /// incremental evaluation, or if `limit` is NaN.
    ///
    /// # Examples
    ///
    /// ```
    /// use apx_arith::truncated_multiplier;
    /// use apx_dist::Pmf;
    /// use apx_metrics::{EvalBackend, CircuitEvaluator};
    ///
    /// let pmf = Pmf::half_normal(6, 12.0);
    /// let eval = CircuitEvaluator::with_backend(6, false, &pmf, EvalBackend::BitParallel)?;
    /// let base = truncated_multiplier(6, 4);
    /// let mut state = eval.new_state(&base);
    /// let cached = eval.wmed_bounded_delta(&mut state, &base, &[], f64::INFINITY);
    /// assert_eq!(cached.unwrap().to_bits(), eval.wmed(&base).to_bits());
    /// # Ok::<(), apx_metrics::EvaluatorError>(())
    /// ```
    #[must_use]
    pub fn wmed_bounded_delta(
        &self,
        state: &mut WmedState,
        child: &Netlist,
        changed: &[u32],
        limit: f64,
    ) -> Option<f64> {
        assert!(self.supports_incremental(), "incremental mode unavailable on this evaluator");
        self.check_arity(child);
        let raw_limit = self.raw_limit(limit);
        self.ctx().wmed_raw_delta(state, child, changed, raw_limit).map(|t| t * self.norm)
    }

    /// Rebases `state` onto `child` after a mutation is accepted,
    /// re-simulating the full fanout cone of `changed` (dead nodes
    /// included, so every cached row stays consistent with `child`).
    ///
    /// # Panics
    ///
    /// Panics on arity/shape mismatch or if the evaluator does not support
    /// incremental evaluation.
    pub fn commit_state(&self, state: &mut WmedState, child: &Netlist, changed: &[u32]) {
        assert!(self.supports_incremental(), "incremental mode unavailable on this evaluator");
        self.check_arity(child);
        self.ctx().commit(state, child, changed);
    }

    /// Full error statistics (one exhaustive pass, no skipping).
    ///
    /// Within the exhaustive cap the pass reads every lane through
    /// `LaneReader` (the scalar interpreter on [`EvalBackend::Scalar`],
    /// the bit-parallel simulator on the other two backends). At widths
    /// beyond the cap the pass goes row by row — streamed on
    /// [`EvalBackend::BitParallel`], symbolic on
    /// [`EvalBackend::Symbolic`]; every statistic except `mred` is still
    /// exact, and `mred` is reported as `NaN` there (the mean *relative*
    /// error is not a sum of the per-row integers — see
    /// [`ErrorStats::mred`]).
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have the operator’s input/output arity.
    #[must_use]
    pub fn stats(&self, netlist: &Netlist) -> ErrorStats {
        self.check_arity(netlist);
        if self.past_cap() {
            return match self.backend {
                EvalBackend::BitParallel => self.row_ctx().streamed_stats(netlist),
                _ => self.row_ctx().symbolic_stats(netlist),
            };
        }
        let range = (1u64 << self.out_bits) as f64;
        let mut reader = LaneReader::new(self.backend, netlist, self.ex, self.width);
        let mut lane_buf = vec![0u64; 64];
        let lanes = self.ex.lanes_per_block();
        let mut sum_abs = 0.0f64;
        let mut sum_weighted = 0.0f64;
        let mut sum_rel = 0.0f64;
        let mut nonzero = 0u64;
        let mut max_abs = 0i64;
        for block in 0..self.ex.num_blocks() {
            reader.read_block(block, &mut lane_buf);
            let base = (block * 64) as u64;
            for (lane, &out_raw) in lane_buf.iter().enumerate().take(lanes) {
                let v = base + lane as u64;
                let x_raw = v >> self.free;
                let exact = self.op.exact_value(self.width, self.signed, v);
                let got = self.interpret(out_raw, self.out_bits);
                let err = (exact - got).abs();
                if err != 0 {
                    nonzero += 1;
                }
                max_abs = max_abs.max(err);
                let err_f = err as f64;
                sum_abs += err_f;
                sum_weighted += self.weights[x_raw as usize] * err_f;
                sum_rel += err_f / (exact.abs().max(1) as f64);
            }
        }
        let total = self.ex.num_vectors() as f64;
        let n = (1u64 << self.free) as f64;
        ErrorStats {
            med: sum_abs / total / range,
            wmed: sum_weighted / n / range,
            wce: max_abs as f64 / range,
            error_rate: nonzero as f64 / total,
            mred: sum_rel / total,
            max_abs_error: max_abs,
        }
    }

    /// Batch re-scoring: full [`CircuitEvaluator::stats`] for every netlist,
    /// fanned out with [`apx_pool::scope_map`].
    ///
    /// This is the component-library primitive: re-pricing a whole library
    /// of already-built multipliers under a *new* data distribution is one
    /// exhaustive pass per candidate and no evolution at all, so a sweep
    /// can consult hundreds of prior designs for less than the cost of a
    /// single CGP run. Results come back in input order and each slot is
    /// bit-identical to a sequential [`CircuitEvaluator::stats`] call — the
    /// thread count can never change a reported WMED.
    ///
    /// # Panics
    ///
    /// Panics if any netlist does not have the operator’s input/output arity
    /// (re-raising the worker's panic message).
    #[must_use]
    pub fn stats_batch(&self, netlists: &[Netlist], threads: usize) -> Vec<ErrorStats> {
        let tasks: Vec<&Netlist> = netlists.iter().collect();
        apx_pool::scope_map(threads, tasks, |_, nl| self.stats(nl))
            .unwrap_or_else(|p| panic!("stats_batch candidate {}: {}", p.index, p.message))
    }

    /// Per-operand-pair normalized absolute error (Fig. 4's heat-map
    /// data). For operators with extra inputs beyond `(x, y)` (the MAC's
    /// accumulator) each cell is the mean over those inputs.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have the operator's input/output
    /// arity, or at widths beyond the exhaustive cap (the dense `2^w ×
    /// 2^w` matrix itself is an enumeration artifact).
    #[must_use]
    pub fn error_matrix(&self, netlist: &Netlist) -> crate::ErrorMatrix {
        self.check_arity(netlist);
        assert!(!self.past_cap(), "error_matrix requires an exhaustively enumerable width");
        let w = self.width;
        let mask = (1u64 << w) - 1;
        let n = 1usize << w;
        let range = (1u64 << self.out_bits) as f64;
        // Vectors sharing one (x, y) cell: the enumeration of the inputs
        // between `y` and `x` (1 for mul/add — plain assignment there).
        let multiplicity = (1u64 << (self.free - w)) as f64;
        let mut data = vec![0.0f64; n * n];
        let mut reader = LaneReader::new(self.backend, netlist, self.ex, self.width);
        let mut lane_buf = vec![0u64; 64];
        let lanes = self.ex.lanes_per_block();
        for block in 0..self.ex.num_blocks() {
            reader.read_block(block, &mut lane_buf);
            let base = (block * 64) as u64;
            for (lane, &out_raw) in lane_buf.iter().enumerate().take(lanes) {
                let v = base + lane as u64;
                let x_raw = v >> self.free;
                let y_raw = v & mask;
                let exact = self.op.exact_value(self.width, self.signed, v);
                let got = self.interpret(out_raw, self.out_bits);
                // Matrix is indexed (row = x encoding, col = y encoding).
                data[(x_raw as usize) * n + y_raw as usize] += (exact - got).abs() as f64 / range;
            }
        }
        if multiplicity > 1.0 {
            for cell in &mut data {
                *cell /= multiplicity;
            }
        }
        crate::ErrorMatrix::new(w, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_stats;
    use apx_arith::mac::mac_unit;
    use apx_arith::{
        array_multiplier, baugh_wooley_broken, baugh_wooley_multiplier, broken_array_multiplier,
        lower_or_adder, truncated_multiplier, OpTable,
    };
    use apx_gates::{GateKind, Node, SignalId};

    #[test]
    fn evaluator_matches_table_stats_unsigned() {
        let pmf = Pmf::half_normal(4, 3.0);
        let eval = CircuitEvaluator::new(4, false, &pmf).unwrap();
        let exact = OpTable::exact_mul(4, false);
        for nl in
            [truncated_multiplier(4, 3), broken_array_multiplier(4, 3, 2), array_multiplier(4)]
        {
            let table = OpTable::from_netlist(&nl, 4, false).unwrap();
            let expect = table_stats(&table, &exact, &pmf);
            let got = eval.stats(&nl);
            assert!((got.wmed - expect.wmed).abs() < 1e-12, "wmed");
            assert!((got.med - expect.med).abs() < 1e-12, "med");
            assert!((got.wce - expect.wce).abs() < 1e-12, "wce");
            assert!((got.error_rate - expect.error_rate).abs() < 1e-12, "er");
            assert!((eval.wmed(&nl) - expect.wmed).abs() < 1e-12, "wmed fast path");
        }
    }

    #[test]
    fn evaluator_matches_table_stats_signed() {
        let pmf = Pmf::signed_normal(4, 0.0, 3.0);
        let eval = CircuitEvaluator::new(4, true, &pmf).unwrap();
        let exact = OpTable::exact_mul(4, true);
        for nl in [baugh_wooley_multiplier(4), baugh_wooley_broken(4, 3, 2)] {
            let table = OpTable::from_netlist(&nl, 4, true).unwrap();
            let expect = table_stats(&table, &exact, &pmf);
            let got = eval.wmed(&nl);
            assert!((got - expect.wmed).abs() < 1e-12, "got {got} expect {}", expect.wmed);
        }
    }

    #[test]
    fn eight_bit_fast_path_matches_table() {
        let pmf = Pmf::normal(8, 127.0, 32.0);
        let eval = CircuitEvaluator::new(8, false, &pmf).unwrap();
        let nl = broken_array_multiplier(8, 6, 5);
        let table = OpTable::from_netlist(&nl, 8, false).unwrap();
        let exact = OpTable::exact_mul(8, false);
        let expect = table_stats(&table, &exact, &pmf);
        assert!((eval.wmed(&nl) - expect.wmed).abs() < 1e-9);
    }

    #[test]
    fn exact_multiplier_has_zero_wmed() {
        let eval = CircuitEvaluator::new(8, false, &Pmf::uniform(8)).unwrap();
        assert_eq!(eval.wmed(&array_multiplier(8)), 0.0);
    }

    #[test]
    fn bounded_eval_aborts_above_limit() {
        let pmf = Pmf::uniform(8);
        let eval = CircuitEvaluator::new(8, false, &pmf).unwrap();
        let bad = truncated_multiplier(8, 12);
        let true_wmed = eval.wmed(&bad);
        assert!(true_wmed > 1e-4);
        assert_eq!(eval.wmed_bounded(&bad, true_wmed / 10.0), None);
        // A generous limit returns the exact value.
        let got = eval.wmed_bounded(&bad, true_wmed * 2.0).unwrap();
        assert!((got - true_wmed).abs() < 1e-12);
    }

    #[test]
    fn negative_infinite_limit_aborts_and_nan_panics() {
        // Exact seeds score 0, so any `None` comes from the limit alone:
        // `−∞` must abort like every negative limit, on each engine, and a
        // NaN limit must panic before any engine runs.
        let point = |width: u32| {
            let mut weights = vec![0.0; 1 << width];
            weights[5] = 1.0;
            Pmf::from_weights(width, weights).unwrap()
        };
        let (bitpar, symbolic) = (EvalBackend::BitParallel, EvalBackend::Symbolic);
        let cases = [
            ("per-block w8", Operator::Mul, 8, Pmf::half_normal(8, 48.0), bitpar),
            ("small-domain w3", Operator::Mul, 3, Pmf::uniform(3), bitpar),
            ("streamed Mul w11", Operator::Mul, 11, point(11), bitpar),
            ("symbolic Add w11", Operator::Add, 11, point(11), symbolic),
        ];
        let nan_panics = |f: &dyn Fn() -> Option<f64>| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<&str>() == Some(&"WMED limit is NaN")
        };
        for (at, op, width, pmf, backend) in cases {
            let eval = CircuitEvaluator::for_operator(op, width, false, &pmf).unwrap();
            assert_eq!(eval.backend(), backend, "{at}");
            let nl = op.seed_circuit(width, false);
            assert_eq!(eval.wmed_bounded(&nl, f64::NEG_INFINITY), None, "{at}");
            assert_eq!(eval.wmed_bounded(&nl, -1.0), None, "{at}");
            assert_eq!(eval.wmed_bounded(&nl, 0.0), Some(0.0), "{at}");
            assert_eq!(eval.wmed_bounded(&nl, f64::INFINITY), Some(0.0), "{at}");
            assert!(nan_panics(&|| eval.wmed_bounded(&nl, f64::NAN)), "{at}");
        }
        let eval = CircuitEvaluator::new(8, false, &Pmf::half_normal(8, 48.0)).unwrap();
        let nl = array_multiplier(8);
        let mut state = eval.new_state(&nl);
        for (limit, want) in
            [(f64::NEG_INFINITY, None), (-1.0, None), (0.0, Some(0.0)), (f64::INFINITY, Some(0.0))]
        {
            assert_eq!(eval.wmed_bounded_delta(&mut state, &nl, &[], limit), want, "delta {limit}");
        }
        assert!(nan_panics(&|| {
            let mut state = eval.new_state(&nl);
            eval.wmed_bounded_delta(&mut state, &nl, &[], f64::NAN)
        }));
    }

    #[test]
    fn zero_weight_blocks_are_skipped() {
        // Point mass on x = 3: WMED only sees row 3.
        let mut weights = vec![0.0; 256];
        weights[3] = 1.0;
        let pmf = Pmf::from_weights(8, weights).unwrap();
        let eval = CircuitEvaluator::new(8, false, &pmf).unwrap();
        assert_eq!(eval.ordered_blocks.len(), 4, "only x=3's four blocks remain");
        let nl = truncated_multiplier(8, 6);
        let table = OpTable::from_netlist(&nl, 8, false).unwrap();
        // WMED == mean error of row x=3 normalized.
        let mut row_sum = 0.0;
        for y in 0..256i64 {
            row_sum += (table.get(3, y) - 3 * y).abs() as f64;
        }
        let expect = row_sum / 256.0 / 65536.0;
        assert!((eval.wmed(&nl) - expect).abs() < 1e-12);
    }

    #[test]
    fn error_matrix_diagonal_structure() {
        let pmf = Pmf::uniform(4);
        let eval = CircuitEvaluator::new(4, false, &pmf).unwrap();
        let nl = truncated_multiplier(4, 4);
        let m = eval.error_matrix(&nl);
        // x = 0 row: product is 0, truncation errors are 0.
        for y in 0..16 {
            assert_eq!(m.get(0, y), 0.0);
        }
        // mean of matrix equals MED.
        let stats = eval.stats(&nl);
        assert!((m.mean() - stats.med).abs() < 1e-12);
    }

    #[test]
    fn stats_batch_matches_sequential_stats_bit_for_bit() {
        let pmf = Pmf::half_normal(4, 3.0);
        let eval = CircuitEvaluator::new(4, false, &pmf).unwrap();
        let netlists = vec![
            array_multiplier(4),
            truncated_multiplier(4, 3),
            truncated_multiplier(4, 5),
            broken_array_multiplier(4, 3, 2),
            broken_array_multiplier(4, 2, 4),
        ];
        let sequential: Vec<_> = netlists.iter().map(|nl| eval.stats(nl)).collect();
        for threads in [1, 4] {
            let batch = eval.stats_batch(&netlists, threads);
            assert_eq!(batch.len(), sequential.len());
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                assert_eq!(b, s, "candidate {i} differs on {threads} thread(s)");
                assert_eq!(b.wmed.to_bits(), s.wmed.to_bits(), "wmed bits, candidate {i}");
            }
        }
        assert!(eval.stats_batch(&[], 4).is_empty());
    }

    #[test]
    fn constructor_errors() {
        assert!(matches!(
            CircuitEvaluator::new(0, false, &Pmf::uniform(1)),
            Err(EvaluatorError::BadWidth { op: Operator::Mul, width: 0, .. })
        ));
        assert!(matches!(
            CircuitEvaluator::for_operator_with_backend(
                Operator::Mac,
                5,
                false,
                &Pmf::uniform(5),
                EvalBackend::BitParallel
            ),
            Err(EvaluatorError::BadWidth {
                op: Operator::Mac,
                width: 5,
                backend: EvalBackend::BitParallel
            })
        ));
        // The same width is fine symbolically; width 9 is not.
        assert!(CircuitEvaluator::for_operator_with_backend(
            Operator::Mac,
            5,
            false,
            &Pmf::uniform(5),
            EvalBackend::Symbolic
        )
        .is_ok());
        let err = CircuitEvaluator::for_operator_with_backend(
            Operator::Mac,
            9,
            false,
            &Pmf::uniform(9),
            EvalBackend::Symbolic,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EvaluatorError::BadWidth {
                op: Operator::Mac,
                width: 9,
                backend: EvalBackend::Symbolic
            }
        ));
        assert!(err.to_string().contains("symbolic"), "{err}");
        let err = CircuitEvaluator::new(8, false, &Pmf::uniform(4)).unwrap_err();
        assert!(matches!(err, EvaluatorError::PmfWidthMismatch { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn for_operator_picks_the_backend_by_width() {
        // Bit-parallel for every multiplier, and for adders and MACs up to
        // the exhaustive cap; symbolic for adders and MACs past it. A point
        // mass keeps the widest bit-parallel evaluators cheap to build.
        let point = |w: u32| {
            let mut weights = vec![0.0; 1 << w];
            weights[1] = 1.0;
            Pmf::from_weights(w, weights).unwrap()
        };
        for (op, widths, cap) in [
            (Operator::Mul, [1u32, 10, 11, 16], 16),
            (Operator::Add, [1, 10, 11, 16], 10),
            (Operator::Mac, [1, 4, 5, 8], 4),
        ] {
            for w in widths {
                let eval = CircuitEvaluator::for_operator(op, w, false, &point(w)).unwrap();
                let want = if w <= cap { EvalBackend::BitParallel } else { EvalBackend::Symbolic };
                assert_eq!(eval.backend(), want, "{op} w={w}");
            }
        }
        assert_eq!(
            CircuitEvaluator::new(12, false, &point(12)).unwrap().backend(),
            EvalBackend::BitParallel
        );
    }

    #[test]
    #[should_panic(expected = "netlist must have 16 inputs")]
    fn arity_mismatch_panics() {
        let eval = CircuitEvaluator::new(8, false, &Pmf::uniform(8)).unwrap();
        let _ = eval.wmed(&array_multiplier(4));
    }

    #[test]
    fn scalar_backend_matches_bit_parallel_wmed() {
        for (width, signed) in [(4u32, false), (6, false), (6, true)] {
            let pmf = if signed {
                Pmf::signed_normal(width, 1.0, 6.0)
            } else {
                Pmf::half_normal(width, 9.0)
            };
            let fast =
                CircuitEvaluator::with_backend(width, signed, &pmf, EvalBackend::BitParallel)
                    .unwrap();
            let slow =
                CircuitEvaluator::with_backend(width, signed, &pmf, EvalBackend::Scalar).unwrap();
            let nl = if signed {
                baugh_wooley_broken(width, 4, 3)
            } else {
                broken_array_multiplier(width, 4, 3)
            };
            assert_eq!(fast.wmed(&nl).to_bits(), slow.wmed(&nl).to_bits(), "w={width}");
            assert_eq!(fast.stats(&nl), slow.stats(&nl), "stats w={width}");
        }
    }

    #[test]
    fn delta_with_empty_changes_matches_full_eval() {
        let pmf = Pmf::half_normal(6, 12.0);
        let eval = CircuitEvaluator::new(6, false, &pmf).unwrap();
        assert!(eval.supports_incremental());
        let base = broken_array_multiplier(6, 4, 3);
        let mut state = eval.new_state(&base);
        // The memory cap's estimate is the state's own footprint.
        assert_eq!(eval.state_bytes(&base), state.bytes());
        let full = eval.wmed(&base);
        let cached = eval.wmed_bounded_delta(&mut state, &base, &[], f64::INFINITY).unwrap();
        assert_eq!(cached.to_bits(), full.to_bits());
        // Abort decisions match too.
        assert_eq!(
            eval.wmed_bounded_delta(&mut state, &base, &[], full / 2.0).is_none(),
            eval.wmed_bounded(&base, full / 2.0).is_none()
        );
    }

    #[test]
    fn scalar_backend_reports_no_incremental_support() {
        let pmf = Pmf::uniform(6);
        let eval = CircuitEvaluator::with_backend(6, false, &pmf, EvalBackend::Scalar).unwrap();
        assert!(!eval.supports_incremental());
        let eval = CircuitEvaluator::with_backend(6, false, &pmf, EvalBackend::Symbolic).unwrap();
        assert!(!eval.supports_incremental());
    }

    #[test]
    fn wide_bitpar_reports_no_incremental_support() {
        // Past the cap the contract is per row, and the delta engine
        // accumulates per block: wide offspring are scored statelessly.
        let mut weights = vec![0.0; 1 << 11];
        weights[5] = 1.0;
        let pmf = Pmf::from_weights(11, weights).unwrap();
        let eval = CircuitEvaluator::new(11, false, &pmf).unwrap();
        assert_eq!(eval.backend(), EvalBackend::BitParallel);
        assert!(!eval.supports_incremental());
        assert!(CircuitEvaluator::new(10, false, &Pmf::uniform(10))
            .unwrap()
            .supports_incremental());
    }

    #[test]
    fn w16_streamed_evaluator_holds_no_block_tables_and_aborts_early() {
        // 2^26 blocks at width 16: the evaluator must hold nothing sized by
        // them, and a truncated multiplier must abort at a tiny limit
        // inside its first erring row (x = 1; row 0 is exact).
        let eval = CircuitEvaluator::new(16, false, &Pmf::uniform(16)).unwrap();
        assert_eq!(eval.backend(), EvalBackend::BitParallel);
        assert!(eval.ordered_blocks.is_empty());
        assert!(eval.exact_planes.is_empty() && eval.exact_tiles.is_empty());
        assert!(eval.input_rows.is_empty());
        assert_eq!(eval.ordered_x.len(), 1 << 16);
        assert_eq!(eval.planes, 33);
        assert_eq!(eval.wmed_bounded(&truncated_multiplier(16, 8), 1e-15), None);
    }

    #[test]
    fn symbolic_backend_matches_bit_parallel_wmed() {
        for (width, signed) in [(6u32, false), (6, true), (7, false)] {
            let pmf = if signed {
                Pmf::signed_normal(width, 1.0, 6.0)
            } else {
                Pmf::half_normal(width, 9.0)
            };
            let fast =
                CircuitEvaluator::with_backend(width, signed, &pmf, EvalBackend::BitParallel)
                    .unwrap();
            let sym =
                CircuitEvaluator::with_backend(width, signed, &pmf, EvalBackend::Symbolic).unwrap();
            let nl = if signed {
                baugh_wooley_broken(width, 4, 3)
            } else {
                broken_array_multiplier(width, 4, 3)
            };
            assert_eq!(fast.wmed(&nl).to_bits(), sym.wmed(&nl).to_bits(), "w={width}");
            // Bounded aborts agree too (the running totals are identical).
            let full = fast.wmed(&nl);
            for limit in [full / 3.0, full * 2.0] {
                let a = fast.wmed_bounded(&nl, limit);
                let b = sym.wmed_bounded(&nl, limit);
                assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "limit {limit}");
            }
        }
    }

    /// `op`'s exact circuit with `rewrites` random node rewrites (random
    /// gate kind, operands drawn from earlier signals).
    fn rewritten_seed(op: Operator, width: u32, signed: bool, rewrites: usize) -> Netlist {
        let mut rng = apx_rng::Xoshiro256::from_seed(0x3E3 ^ u64::from(width));
        let base = op.seed_circuit(width, signed);
        let ni = base.num_inputs();
        let mut nodes = base.nodes().to_vec();
        for _ in 0..rewrites {
            let k = rng.gen_range(nodes.len());
            let kind = GateKind::ALL[rng.gen_range(GateKind::ALL.len())];
            let a = SignalId(rng.gen_range(ni + k) as u32);
            let b = SignalId(rng.gen_range(ni + k) as u32);
            nodes[k] = Node { kind, a, b };
        }
        Netlist::new(ni, nodes, base.outputs().to_vec()).expect("rewrites preserve topology")
    }

    #[test]
    fn wide_path_matches_enumeration() {
        // The per-row accumulation, greedy worst case and any-plane error
        // rate the symbolic engine uses past the exhaustive cap, forced at
        // exhaustive widths and held to the enumeration backends. Uniform
        // weights are dyadic, so both accumulation orders are exact and
        // must agree to the last bit.
        for (op, width) in
            [(Operator::Mul, 6), (Operator::Mul, 7), (Operator::Add, 8), (Operator::Mac, 4)]
        {
            for signed in [false, true] {
                let pmf = Pmf::uniform(width);
                let build = |backend| {
                    CircuitEvaluator::for_operator_with_backend(op, width, signed, &pmf, backend)
                        .unwrap()
                };
                let (fast, sym) = (build(EvalBackend::BitParallel), build(EvalBackend::Symbolic));
                let rows = sym.row_ctx();
                let broken = if signed {
                    baugh_wooley_broken(width, width - 2, 3)
                } else {
                    broken_array_multiplier(width, width - 2, 3)
                };
                let conventional = match op {
                    Operator::Mul => broken,
                    Operator::Add => lower_or_adder(width, 3),
                    Operator::Mac => mac_unit(&broken, width, op.acc_width(width), signed),
                };
                let candidates = [
                    op.seed_circuit(width, signed),
                    conventional,
                    rewritten_seed(op, width, signed, 3),
                ];
                for (i, nl) in candidates.iter().enumerate() {
                    let at = format!("{op} w{width} signed={signed} candidate {i}");
                    let want = fast.stats(nl);
                    let got = rows.symbolic_stats(nl);
                    assert!(i == 0 || want.max_abs_error > 1, "{at}: trivial candidate");
                    assert_eq!(got.med.to_bits(), want.med.to_bits(), "{at}: med");
                    assert_eq!(got.wmed.to_bits(), want.wmed.to_bits(), "{at}: wmed");
                    assert_eq!(got.wce.to_bits(), want.wce.to_bits(), "{at}: wce");
                    assert_eq!(got.error_rate.to_bits(), want.error_rate.to_bits(), "{at}: er");
                    assert_eq!(got.max_abs_error, want.max_abs_error, "{at}: max_abs_error");
                    assert!(got.mred.is_nan(), "{at}: mred is NaN on the wide path");
                    assert_eq!(
                        rows.symbolic_wmed_raw(nl, f64::INFINITY, false).map(f64::to_bits),
                        rows.symbolic_wmed_raw(nl, f64::INFINITY, true).map(f64::to_bits),
                        "{at}: wmed_raw"
                    );
                }
            }
        }
    }

    /// Asserts two [`ErrorStats`] are equal down to the last mantissa bit,
    /// `mred` aside (`NaN` on the per-row paths).
    fn assert_wide_stats_identical(got: &ErrorStats, want: &ErrorStats, at: &str) {
        assert_eq!(got.med.to_bits(), want.med.to_bits(), "{at}: med");
        assert_eq!(got.wmed.to_bits(), want.wmed.to_bits(), "{at}: wmed");
        assert_eq!(got.wce.to_bits(), want.wce.to_bits(), "{at}: wce");
        assert_eq!(got.error_rate.to_bits(), want.error_rate.to_bits(), "{at}: er");
        assert_eq!(got.max_abs_error, want.max_abs_error, "{at}: max_abs_error");
        assert!(got.mred.is_nan(), "{at}: mred is NaN on the per-row path");
    }

    /// The streamed-path candidates of `op`: the exact seed, one or two
    /// conventional approximations and a rewritten seed.
    fn streamed_candidates(op: Operator, width: u32, signed: bool) -> Vec<Netlist> {
        let seed = op.seed_circuit(width, signed);
        let rewritten = rewritten_seed(op, width, signed, 3);
        match op {
            Operator::Mul => {
                let broken = if signed {
                    baugh_wooley_broken(width, width - 2, 3)
                } else {
                    broken_array_multiplier(width, width - 2, 3)
                };
                vec![seed, broken, truncated_multiplier(width, 4), rewritten]
            }
            Operator::Add => vec![seed, lower_or_adder(width, 3), rewritten],
            Operator::Mac => {
                let truncated = truncated_multiplier(width, width);
                let mac = mac_unit(&truncated, width, op.acc_width(width), signed);
                vec![seed, mac, rewritten]
            }
        }
    }

    /// Holds the streamed row engine to the symbolic per-row path of
    /// `rows` (a symbolic evaluator's): full stats, and bounded WMED below,
    /// at and above the full value, bit for bit. Returns the stats.
    fn assert_streamed_matches_symbolic(rows: &RowCtx<'_>, nl: &Netlist, at: &str) -> ErrorStats {
        let want = rows.symbolic_stats(nl);
        assert_wide_stats_identical(&rows.streamed_stats(nl), &want, at);
        let full = rows.symbolic_wmed_raw(nl, f64::INFINITY, false).unwrap();
        for limit in [f64::INFINITY, full / 3.0, full, 2.0 * full] {
            assert_eq!(
                rows.streamed_wmed_raw(nl, limit).map(f64::to_bits),
                rows.symbolic_wmed_raw(nl, limit, false).map(f64::to_bits),
                "{at}: bounded at {limit}"
            );
        }
        want
    }

    #[test]
    fn streamed_path_matches_enumeration_and_symbolic() {
        // The streamed row engine the bit-parallel backend runs past the
        // cap, forced at exhaustive widths (the symbolic evaluator carries
        // the weight-sorted rows it needs). Under uniform weights both f64
        // orders are exact, so it must match the per-block enumeration;
        // under a non-dyadic PMF it must match the symbolic per-row path
        // bit for bit, bounded verdicts included. `Mac` at widths 2–4 has
        // accumulator bits among the lanes and the blocks, and an unsigned
        // MAC's exact value wraps modulo its output range.
        let cases = [
            (Operator::Mul, 6u32),
            (Operator::Mul, 7),
            (Operator::Add, 6),
            (Operator::Add, 7),
            (Operator::Mac, 2),
            (Operator::Mac, 3),
            (Operator::Mac, 4),
        ];
        for (op, width) in cases {
            for signed in [false, true] {
                let build = |pmf: &Pmf, backend| {
                    CircuitEvaluator::for_operator_with_backend(op, width, signed, pmf, backend)
                        .unwrap()
                };
                let uniform = Pmf::uniform(width);
                let fast = build(&uniform, EvalBackend::BitParallel);
                let sym_uniform = build(&uniform, EvalBackend::Symbolic);
                let lumpy = if signed {
                    Pmf::signed_normal(width, 1.0, 6.0)
                } else {
                    Pmf::half_normal(width, 9.0)
                };
                let sym = build(&lumpy, EvalBackend::Symbolic);
                let rows = sym.row_ctx();
                for (i, nl) in streamed_candidates(op, width, signed).iter().enumerate() {
                    let at = format!("{op} w{width} signed={signed} candidate {i}");
                    let streamed = sym_uniform.row_ctx().streamed_stats(nl);
                    assert_wide_stats_identical(
                        &streamed,
                        &fast.stats(nl),
                        &format!("{at} uniform"),
                    );
                    assert!(i == 0 || streamed.max_abs_error > 1, "{at}: trivial candidate");
                    assert_streamed_matches_symbolic(&rows, nl, &at);
                }
            }
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; CI runs it in the step \
                  `cargo test --release -p apx_metrics --lib streamed_add_and_mac_past_the_cap`"
    )]
    fn streamed_add_and_mac_past_the_cap_match_symbolic() {
        // Past the cap the width puts adders and MACs on the symbolic
        // engine, so nothing else holds the streamed rows' exact planes to
        // a second engine for these operators there: full stats and
        // bounded WMED must match bit for bit under a non-dyadic PMF.
        for (op, width) in [(Operator::Add, 11u32), (Operator::Mac, 5), (Operator::Mac, 6)] {
            for signed in [false, true] {
                let half = f64::from(1u32 << (width - 1));
                let pmf = if signed {
                    Pmf::signed_normal(width, 1.0, half / 4.0)
                } else {
                    Pmf::half_normal(width, half / 3.0)
                };
                let sym = CircuitEvaluator::for_operator(op, width, signed, &pmf).unwrap();
                assert_eq!(sym.backend(), EvalBackend::Symbolic, "{op} w{width}");
                let rows = sym.row_ctx();
                for (i, nl) in streamed_candidates(op, width, signed).iter().enumerate() {
                    let at = format!("{op} w{width} signed={signed} candidate {i}");
                    let want = assert_streamed_matches_symbolic(&rows, nl, &at);
                    assert!(i == 0 || want.max_abs_error > 1, "{at}: trivial candidate");
                }
            }
        }
    }

    #[test]
    fn symbolic_wide_width_scores_exact_seed_as_zero() {
        // Width 12 is far beyond the exhaustive backends (2^24-vector
        // domain for mul) but cheap symbolically.
        let op = Operator::Add;
        let pmf = Pmf::uniform(12);
        let eval =
            CircuitEvaluator::for_operator_with_backend(op, 12, false, &pmf, EvalBackend::Symbolic)
                .unwrap();
        let seed = op.seed_circuit(12, false);
        assert_eq!(eval.wmed(&seed), 0.0);
        let stats = eval.stats(&seed);
        assert_eq!(stats.wmed, 0.0);
        assert_eq!(stats.max_abs_error, 0);
        assert_eq!(stats.error_rate, 0.0);
        assert!(stats.mred.is_nan(), "wide-width mred is NaN by contract");
    }
}
