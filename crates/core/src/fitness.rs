//! Eq. 1: area under a WMED budget.

use apx_cgp::{Chromosome, FitnessFn};
use apx_dist::Pmf;
use apx_gates::{Netlist, NetlistError, SignalId};
use apx_metrics::{CircuitEvaluator, WmedState};
use apx_techlib::{area_of, TechLibrary};
use std::cell::RefCell;
use std::sync::Arc;

/// Cap on the cached-simulation footprint before the incremental protocol
/// is declined (the CGP inner loop then falls back to full evaluation).
const MAX_STATE_BYTES: usize = 32 << 20;

/// Nodes whose genes the offspring diff compares at once.
const DIFF_NODES: usize = 16;

/// Cached incremental-evaluation context: the most recently rebased parent
/// and the simulation state describing it.
#[derive(Debug)]
struct IncrSlot {
    /// The chromosome the cached rows describe. May lag the evolution
    /// loop's current parent by neutral (dead-node) drift: deltas and
    /// shortcuts diff offspring against this base, which yields the same
    /// exact scores.
    base: Chromosome,
    /// `base.decode_full()`. An offspring is scored on this netlist
    /// patched along its changed nodes and output genes — which makes it
    /// exactly the offspring's own full decode — and the patch is undone
    /// before the score is returned. A promotion patches it the same way
    /// and keeps the patch.
    net: Netlist,
    /// Cached full-grid signal rows for `net`.
    state: WmedState,
    /// Per-signal activity of the base (`ni + k` for node `k`): mutations
    /// confined to inactive nodes cannot change the phenotype, and only
    /// active nodes count towards the area.
    base_active: Vec<bool>,
    /// The base's own fitness — the parent's, since neutral drift keeps
    /// the phenotype — for the neutral shortcut and the area skip.
    base_fit: f64,
    /// The nodes whose gene triple differs from `base` in the chromosome
    /// last passed to [`IncrSlot::diff`] (a buffer reused across calls).
    changed: Vec<u32>,
}

impl IncrSlot {
    /// Gene-level diff of `child` against the base into `changed`: the
    /// node indices whose gene triple differs (a safe superset of the
    /// functionally changed nodes — e.g. the unused second operand of a
    /// unary gate counts too). Returns whether any output gene differs, or
    /// `None` on a shape mismatch (inputs, grid or function set), which
    /// forces the stateless path.
    fn diff(&mut self, child: &Chromosome) -> Option<bool> {
        let base = &self.base;
        if base.num_inputs() != child.num_inputs()
            || base.cols() != child.cols()
            || base.len() != child.len()
            || base.function_set() != child.function_set()
        {
            return None;
        }
        let (bg, bo) = base.genes().split_at(3 * base.cols());
        let (cg, co) = child.genes().split_at(3 * base.cols());
        self.changed.clear();
        // A mutation redraws a handful of genes, so nearly every chunk is
        // equal and costs one fixed-length (vectorized) xor-or; only a
        // differing chunk, and the ragged tail, are searched node by node.
        let (mut bc, mut cc) = (bg.chunks_exact(3 * DIFF_NODES), cg.chunks_exact(3 * DIFF_NODES));
        for (c, (b, x)) in (&mut bc).zip(&mut cc).enumerate() {
            let (b, x): (&[u32; 3 * DIFF_NODES], &[u32; 3 * DIFF_NODES]) =
                (b.try_into().expect("exact chunk"), x.try_into().expect("exact chunk"));
            if b.iter().zip(x).fold(0, |acc, (p, q)| acc | (p ^ q)) != 0 {
                Self::diff_chunk(c * DIFF_NODES, b, x, &mut self.changed);
            }
        }
        let tail = base.cols() / DIFF_NODES * DIFF_NODES;
        Self::diff_chunk(tail, bc.remainder(), cc.remainder(), &mut self.changed);
        Some(bo != co)
    }

    /// Appends to `changed` the nodes of one gene chunk, the first being
    /// node `first`, whose gene triple differs.
    fn diff_chunk(first: usize, base: &[u32], child: &[u32], changed: &mut Vec<u32>) {
        for (j, (b, x)) in base.chunks_exact(3).zip(child.chunks_exact(3)).enumerate() {
            if (b[0] ^ x[0]) | (b[1] ^ x[1]) | (b[2] ^ x[2]) != 0 {
                changed.push((first + j) as u32);
            }
        }
    }

    /// Whether the last diffed chromosome changed only nodes that are
    /// inactive in the base, outputs untouched. Inactive nodes are never
    /// read by the backward activity walk, so its phenotype — and hence
    /// its fitness — is exactly the base's.
    fn is_neutral(&self, outputs_changed: bool) -> bool {
        let ni = self.base.num_inputs();
        !outputs_changed && self.changed.iter().all(|&k| !self.base_active[ni + k as usize])
    }

    /// Patches `net` into `child`'s full decode along the last diff, each
    /// node and output checked as `Netlist::validate` would;
    /// [`IncrSlot::unpatch`] restores the base.
    ///
    /// # Panics
    ///
    /// Panics, with the base restored, if `child` does not encode a valid
    /// netlist.
    fn patch(&mut self, child: &Chromosome, outputs_changed: bool) {
        if let Err(e) = self.try_patch(child, outputs_changed) {
            self.unpatch(outputs_changed);
            panic!("chromosome encodes a valid netlist: {e}");
        }
        debug_assert_eq!(self.net, child.decode_full(), "the patch is the full decode");
    }

    /// [`IncrSlot::patch`]'s checked writes, stopping at the first error.
    fn try_patch(&mut self, child: &Chromosome, outputs_changed: bool) -> Result<(), NetlistError> {
        for &k in &self.changed {
            self.net.set_node(k as usize, child.node(k as usize))?;
        }
        if outputs_changed {
            for (j, &g) in child.genes()[3 * child.cols()..].iter().enumerate() {
                self.net.set_output(j, SignalId(g))?;
            }
        }
        Ok(())
    }

    /// Whether the offspring patched into `net` (along the last diff) can
    /// cost more area than the base, decided in O(changed). Only a changed
    /// node that is active in the base can add area: by getting a larger
    /// cell, or by reading a node that is dead in the base; and so can an
    /// output redirected onto a node dead in the base. Short of those,
    /// every node active in the offspring is active in the base with a
    /// cell no larger, and [`area_of`]'s grid-order sum of non-negative
    /// cell areas is monotone in every term, so it cannot exceed the
    /// base's.
    fn area_may_grow(&self, outputs_changed: bool, tech: &TechLibrary) -> bool {
        let ni = self.base.num_inputs();
        let dead = |s: SignalId| s.index() >= ni && !self.base_active[s.index()];
        let nodes = self.net.nodes();
        self.changed.iter().any(|&k| {
            let (k, node) = (k as usize, &nodes[k as usize]);
            let arity = node.kind.arity();
            self.base_active[ni + k]
                && (tech.cell(node.kind).area_um2 > tech.cell(self.base.node(k).kind).area_um2
                    || (arity >= 1 && dead(node.a))
                    || (arity >= 2 && dead(node.b)))
        }) || (outputs_changed && self.net.outputs().iter().any(|&o| dead(o)))
    }

    /// Undoes [`IncrSlot::patch`]: `net` is the base's full decode again.
    fn unpatch(&mut self, outputs_changed: bool) {
        const BASE: &str = "the base decodes to a valid netlist";
        for &k in &self.changed {
            self.net.set_node(k as usize, self.base.node(k as usize)).expect(BASE);
        }
        if outputs_changed {
            for (j, &g) in self.base.genes()[3 * self.base.cols()..].iter().enumerate() {
                self.net.set_output(j, SignalId(g)).expect(BASE);
            }
        }
    }
}

/// The paper's fitness function (Eq. 1):
///
/// ```text
/// F(M̃) = area(M̃)   if WMED_D(M̃) ≤ E_i
///        ∞          otherwise
/// ```
///
/// Evaluation decodes only the chromosome's active cone, runs the
/// early-abort WMED evaluator (most violating offspring are rejected after
/// a handful of high-weight blocks) and prices the survivors with the
/// technology library.
///
/// The evaluator is held behind an [`Arc`]: it is by far the most
/// expensive part to construct (exhaustive input enumeration and
/// weight-sorted blocks), so sweeps build it **once** per `(width,
/// signed, pmf)` and share it across every threshold and run via
/// [`Eq1Fitness::with_evaluator`].
///
/// # Incremental evaluation
///
/// When the evaluator [supports it](CircuitEvaluator::supports_incremental),
/// the [`FitnessFn`] implementation keeps a cached simulation state for
/// the current CGP parent (installed by [`FitnessFn::rebase`], which
/// `apx_cgp`'s evolution loop calls on every parent change). Offspring
/// are then scored by re-simulating only the mutated nodes' fanout cones
/// ([`CircuitEvaluator::wmed_bounded_delta`]) on the parent's full decode
/// patched along the changed genes (no per-offspring decode), and
/// mutations confined to inactive genes short-circuit to the parent's
/// fitness without touching the simulator at all. An offspring whose area
/// alone exceeds the parent's fitness cannot be promoted whatever its
/// WMED, so it is scored by that area and the WMED walk is skipped.
///
/// Every score ≤ the parent's is bit-identical to the stateless
/// [`Eq1Fitness::of`], and every other score stays above the parent's
/// (a skipped offspring reads its area where `of` may read `∞`). The
/// evolution loop reads offspring scores only through their minimum and
/// the `≤ parent` test (see [`FitnessFn`]), so search trajectories — and
/// therefore sweep caches — do not depend on whether the shortcuts were
/// available. A fresh (or cloned) `Eq1Fitness` holds no incremental state
/// and scores every chromosome exactly until its first rebase.
#[derive(Debug)]
pub struct Eq1Fitness {
    evaluator: Arc<CircuitEvaluator>,
    tech: TechLibrary,
    threshold: f64,
    /// Incremental context; `None` until the first [`FitnessFn::rebase`].
    incr: RefCell<Option<IncrSlot>>,
}

impl Clone for Eq1Fitness {
    /// Clones share the evaluator but start with a fresh (empty)
    /// incremental slot — cached state is tied to one search loop.
    fn clone(&self) -> Self {
        Eq1Fitness {
            evaluator: Arc::clone(&self.evaluator),
            tech: self.tech.clone(),
            threshold: self.threshold,
            incr: RefCell::new(None),
        }
    }
}

impl Eq1Fitness {
    /// Builds the fitness for a `width`-bit (optionally signed) multiplier
    /// under distribution `pmf` with WMED budget `threshold`. For other
    /// operators, build a [`CircuitEvaluator::for_operator`] evaluator and
    /// use [`Eq1Fitness::with_evaluator`].
    ///
    /// # Errors
    ///
    /// Propagates [`apx_metrics::EvaluatorError`] for bad width/PMF
    /// combinations.
    pub fn new(
        width: u32,
        signed: bool,
        pmf: &Pmf,
        tech: TechLibrary,
        threshold: f64,
    ) -> Result<Self, apx_metrics::EvaluatorError> {
        Ok(Self::with_evaluator(
            Arc::new(CircuitEvaluator::new(width, signed, pmf)?),
            tech,
            threshold,
        ))
    }

    /// Builds the fitness around an already-constructed, shared evaluator
    /// — infallible, and the constructor every sweep task uses.
    #[must_use]
    pub fn with_evaluator(
        evaluator: Arc<CircuitEvaluator>,
        tech: TechLibrary,
        threshold: f64,
    ) -> Self {
        Eq1Fitness { evaluator, tech, threshold, incr: RefCell::new(None) }
    }

    /// The WMED budget `E_i`.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Evaluates a chromosome; `f64::INFINITY` marks a budget violation.
    #[must_use]
    pub fn of(&self, chromosome: &Chromosome) -> f64 {
        let netlist = chromosome.decode_active();
        match self.evaluator.wmed_bounded(&netlist, self.threshold) {
            Some(_) => area_of(&netlist, &self.tech),
            None => f64::INFINITY,
        }
    }

    /// The underlying WMED evaluator (for post-hoc statistics).
    #[must_use]
    pub fn evaluator(&self) -> &CircuitEvaluator {
        &self.evaluator
    }
}

impl FitnessFn for Eq1Fitness {
    /// Scores `chromosome`. Before the first [`FitnessFn::rebase`] this is
    /// [`Eq1Fitness::of`]. After it, only the mutated fanout cone is
    /// re-simulated, purely neutral mutations (inactive genes only, outputs
    /// untouched) return the cached parent fitness outright, and an
    /// offspring whose area exceeds the parent's fitness returns that area
    /// without a WMED walk. The score is bit-identical to `of` for every
    /// score ≤ the parent's, and above the parent's fitness otherwise.
    fn eval(&self, chromosome: &Chromosome) -> f64 {
        let mut guard = self.incr.borrow_mut();
        let Some(slot) = guard.as_mut() else { return self.of(chromosome) };
        let Some(outputs_changed) = slot.diff(chromosome) else {
            return self.of(chromosome);
        };
        if slot.is_neutral(outputs_changed) {
            return slot.base_fit;
        }
        slot.patch(chromosome, outputs_changed);
        // Price the offspring first when its area can exceed the base's: an
        // offspring dearer than the parent cannot be promoted, so its WMED
        // is never needed, and a cheaper one reuses the area.
        let area =
            slot.area_may_grow(outputs_changed, &self.tech).then(|| area_of(&slot.net, &self.tech));
        let fit = match area {
            Some(area) if area > slot.base_fit => area,
            _ => self.rescore(&mut slot.state, &slot.net, &slot.changed, area),
        };
        slot.unpatch(outputs_changed);
        fit
    }

    /// Installs (or rebases) the cached simulation state onto `parent`,
    /// re-scoring the parent from the cache.
    ///
    /// The evolution loop calls [`FitnessFn::rebase_scored`] instead,
    /// which skips the re-score because the promotion already knows the
    /// parent's fitness.
    fn rebase(&self, parent: &Chromosome) {
        self.rebase_impl(parent, None);
    }

    /// [`rebase`](FitnessFn::rebase) with the parent's known fitness.
    fn rebase_scored(&self, parent: &Chromosome, fit: f64) {
        self.rebase_impl(parent, Some(fit));
    }
}

impl Eq1Fitness {
    /// Rebase workhorse: commits the cached rows onto `parent` (or keeps
    /// them, when the promotion was neutral dead-node drift) and records
    /// the parent's fitness — taken from `known_fit` when the evolution
    /// loop supplied it, re-scored from the cache otherwise.
    ///
    /// A slot of the parent's shape is rebased by patch: its netlist is
    /// patched along the diff into the parent's full decode (the checked
    /// path [`eval`](FitnessFn::eval) takes) and kept, and only the changed
    /// cone is re-simulated. The first rebase, and a parent of another
    /// shape, build the slot from a full decode.
    ///
    /// Skipped entirely — leaving subsequent [`eval`](FitnessFn::eval)
    /// calls on the stateless path — when the evaluator cannot run
    /// incrementally or the cached rows would exceed [`MAX_STATE_BYTES`].
    fn rebase_impl(&self, parent: &Chromosome, known_fit: Option<f64>) {
        if !self.evaluator.supports_incremental() {
            return;
        }
        let mut guard = self.incr.borrow_mut();
        // A slot of the parent's shape exists when the diff succeeds; it
        // also fills the slot's `changed` list.
        match guard.as_mut().and_then(|slot| Some((slot.diff(parent)?, slot))) {
            // Neutral drift: the promotion changed only nodes that are
            // inactive in the slot base, so the active cone — and with it
            // `base_fit`/`base_active` — is untouched. The delta path diffs
            // offspring against the slot base (not the parent), so the
            // cached rows remain exactly right; committing here would
            // re-simulate a dead fanout cone over every block for nothing.
            // Keep the slot as is.
            Some((outputs_changed, slot)) if slot.is_neutral(outputs_changed) => return,
            // Rebase by patch. A slot of a fixed shape keeps its
            // footprint, so it is not re-checked.
            Some((outputs_changed, slot)) => {
                slot.patch(parent, outputs_changed);
                self.evaluator.commit_state(&mut slot.state, &slot.net, &slot.changed);
                slot.base.clone_from(parent);
                slot.net.fill_active_mask(&mut slot.base_active);
                debug_assert_eq!(slot.base_active, parent.decode_full().active_mask());
            }
            None => {
                let full = parent.decode_full();
                if self.evaluator.state_bytes(&full) > MAX_STATE_BYTES {
                    *guard = None;
                    return;
                }
                let changed = guard.take().map(|slot| slot.changed).unwrap_or_default();
                *guard = Some(IncrSlot {
                    base: parent.clone(),
                    base_active: full.active_mask(),
                    state: self.evaluator.new_state(&full),
                    net: full,
                    base_fit: f64::INFINITY,
                    changed,
                });
            }
        }
        let slot = guard.as_mut().expect("the slot was just rebased");
        slot.base_fit = match known_fit {
            // The promotion's own score — bit-identical to what a re-score
            // from the (freshly committed) cache would produce.
            Some(fit) => fit,
            None => self.rescore(&mut slot.state, &slot.net, &[], None),
        };
    }

    /// Scores `full`, whose nodes differ from the state's base only in
    /// `changed`, from the cached state without perturbing it. `area` is
    /// `full`'s area when the caller has already priced it.
    fn rescore(
        &self,
        state: &mut WmedState,
        full: &Netlist,
        changed: &[u32],
        area: Option<f64>,
    ) -> f64 {
        match self.evaluator.wmed_bounded_delta(state, full, changed, self.threshold) {
            // `area_of` prices the active cone only, in grid order — the
            // same terms, in the same order, as `of`'s compacted decode.
            Some(_) => area.unwrap_or_else(|| area_of(full, &self.tech)),
            None => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_arith::{array_multiplier, truncated_multiplier};
    use apx_cgp::FunctionSet;

    fn chrom_of(nl: &apx_gates::Netlist) -> Chromosome {
        Chromosome::from_netlist(nl, &FunctionSet::extended(), nl.gate_count() + 10).unwrap()
    }

    #[test]
    fn exact_seed_scores_its_area() {
        let nl = array_multiplier(4);
        let fit = Eq1Fitness::new(4, false, &Pmf::uniform(4), TechLibrary::unit(), 0.001).unwrap();
        let f = fit.of(&chrom_of(&nl));
        assert_eq!(f, nl.compact().gate_count() as f64);
        assert_eq!(fit.threshold(), 0.001);
    }

    #[test]
    fn violators_get_infinity() {
        // Truncating 6 of 8 columns of a 4-bit multiplier far exceeds a
        // 0.01% budget.
        let nl = truncated_multiplier(4, 6);
        let fit = Eq1Fitness::new(4, false, &Pmf::uniform(4), TechLibrary::unit(), 1e-4).unwrap();
        assert_eq!(fit.of(&chrom_of(&nl)), f64::INFINITY);
    }

    #[test]
    fn incremental_evolution_matches_stateless_closure() {
        // The whole point of the FitnessFn implementation: an evolution
        // run scored through the incremental slot (rebase + delta +
        // neutral shortcut) must reproduce the stateless `of` trajectory
        // bit for bit — and so must the same run on the reference
        // backends, which score every offspring statelessly. Width 6 so
        // the bit-parallel evaluator supports the protocol; four weighted
        // values keep the symbolic run cheap. Under the unit library many
        // offspring cost exactly the parent's area, which must not skip
        // the WMED walk.
        use apx_arith::Operator;
        use apx_cgp::{evolve, EvolutionConfig};
        use apx_metrics::EvalBackend;
        let nl = apx_arith::array_multiplier(6);
        let mut weights = vec![0.0; 64];
        for (x, w) in [(3, 4.0), (17, 2.0), (40, 1.0), (63, 3.0)] {
            weights[x] = w;
        }
        let pmf = Pmf::from_weights(6, weights).unwrap();
        let seed = chrom_of(&nl);
        let cfg = EvolutionConfig {
            max_iterations: 120,
            seed: 42,
            keep_history: true,
            ..EvolutionConfig::default()
        };
        for tech in [TechLibrary::nangate45(), TechLibrary::unit()] {
            let fitness = |backend| {
                let eval = CircuitEvaluator::for_operator_with_backend(
                    Operator::Mul,
                    6,
                    false,
                    &pmf,
                    backend,
                )
                .unwrap();
                Eq1Fitness::with_evaluator(Arc::new(eval), tech.clone(), 0.01)
            };
            let stateless = fitness(EvalBackend::BitParallel);
            let want = evolve(&seed, move |c: &Chromosome| stateless.of(c), &cfg);
            for backend in [EvalBackend::BitParallel, EvalBackend::Scalar, EvalBackend::Symbolic] {
                let fit = fitness(backend);
                let incremental = fit.evaluator().supports_incremental();
                assert_eq!(incremental, backend == EvalBackend::BitParallel);
                let got = evolve(&seed, fit, &cfg);
                assert_eq!(result_bits(&got), result_bits(&want), "{} {backend}", tech.name());
            }
        }
    }

    /// Every field of an evolution result, floats as bit patterns: the
    /// final parent, its fitness, iterations, evaluations, history and
    /// the winning warm-start seed.
    type ResultBits = (Chromosome, u64, u64, u64, Vec<(u64, u64)>, Option<usize>);

    fn result_bits(r: &apx_cgp::EvolutionResult) -> ResultBits {
        let history = r.history.iter().map(|&(i, f)| (i, f.to_bits())).collect();
        (
            r.best.clone(),
            r.best_fitness.to_bits(),
            r.iterations,
            r.evaluations,
            history,
            r.initial_seed,
        )
    }

    #[test]
    #[ignore = "release only: ~24k width-8 evaluations are slow in a debug build"]
    fn fig3_shaped_incremental_evolution_matches_stateless_closure() {
        // The debug trajectory test above runs width 6, where few
        // offspring are priced out of the WMED walk. This is the Fig. 3
        // shape: unsigned width-8 multipliers with 60 spare columns on the
        // extended function set, the paper's D1 and D2, NanGate 45 nm.
        // Every offspring is also scored by `of`, to check the loop
        // contract score by score and to count the skipped walks.
        use apx_arith::Operator;
        use apx_cgp::{evolve, EvolutionConfig};
        use std::cell::Cell;

        struct Checked<'a> {
            fit: Eq1Fitness,
            parent: Cell<f64>,
            skipped: &'a Cell<u64>,
        }
        impl FitnessFn for Checked<'_> {
            fn eval(&self, c: &Chromosome) -> f64 {
                let (got, exact, parent) = (self.fit.eval(c), self.fit.of(c), self.parent.get());
                if exact <= parent {
                    assert_eq!(got.to_bits(), exact.to_bits());
                } else {
                    assert!(got > parent, "{got} ≤ {parent}");
                    self.skipped.set(self.skipped.get() + u64::from(got != exact));
                }
                got
            }
            fn rebase_scored(&self, parent: &Chromosome, fit: f64) {
                self.parent.set(fit);
                self.fit.rebase_scored(parent, fit);
            }
        }

        let nl = Operator::Mul.seed_circuit(8, false);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::extended(), nl.gate_count() + 60).unwrap();
        let cfg = EvolutionConfig { max_iterations: 500, seed: 7, ..EvolutionConfig::default() };
        for (name, pmf) in [("D1", Pmf::normal(8, 127.0, 32.0)), ("D2", Pmf::half_normal(8, 48.0))]
        {
            let eval = Arc::new(CircuitEvaluator::new(8, false, &pmf).unwrap());
            assert!(eval.supports_incremental());
            for threshold in [1e-3, 5e-2] {
                let fit = Eq1Fitness::with_evaluator(
                    Arc::clone(&eval),
                    TechLibrary::nangate45(),
                    threshold,
                );
                let stateless = fit.clone();
                let want = evolve(&seed, move |c: &Chromosome| stateless.of(c), &cfg);
                assert!(want.best_fitness < want.history[0].1, "{name} {threshold}: no progress");
                let skipped = Cell::new(0);
                // No parent yet: the seed is scored exactly.
                let parent = Cell::new(f64::INFINITY);
                let got = evolve(&seed, Checked { fit, parent, skipped: &skipped }, &cfg);
                assert_eq!(result_bits(&got), result_bits(&want), "{name} {threshold}");
                assert!(skipped.get() > 0, "{name} {threshold}: no walk skipped");
            }
        }
    }

    #[test]
    fn scores_above_the_base_stay_above_it_along_mutation_chains() {
        // Random mutation chains with promotions. After every rebase a
        // score at or below the slot base's is bit-identical to `of`, and
        // any other score stays above the base's. Whenever the O(changed)
        // test clears an offspring, its area is at most the base's: no
        // offspring that could skip the WMED walk is missed.
        use apx_cgp::mutate;
        use apx_rng::Xoshiro256;
        for (width, steps, threshold) in [(6, 500, 0.01), (8, 300, 1e-2)] {
            let nl = array_multiplier(width);
            let seed =
                Chromosome::from_netlist(&nl, &FunctionSet::extended(), nl.gate_count() + 30)
                    .unwrap();
            let pmf = Pmf::half_normal(width, f64::from(1u32 << width) / 5.0);
            for tech in [TechLibrary::nangate45(), TechLibrary::unit()] {
                let fit = Eq1Fitness::new(width, false, &pmf, tech.clone(), threshold).unwrap();
                let mut rng = Xoshiro256::from_seed(u64::from(width));
                let mut parent = seed.clone();
                fit.rebase(&parent);
                let (mut cleared, mut skipped, mut promoted, mut rescored) = (0, 0, 0, 0);
                for _ in 0..steps {
                    let mut child = parent.clone();
                    mutate(&mut child, 5, &mut rng);
                    let exact = fit.of(&child);
                    let (may_grow, base_fit) = {
                        let mut guard = fit.incr.borrow_mut();
                        let slot = guard.as_mut().expect("width ≥ 6 runs incrementally");
                        let outputs_changed = slot.diff(&child).expect("same shape");
                        slot.patch(&child, outputs_changed);
                        let may_grow = slot.area_may_grow(outputs_changed, &tech);
                        slot.unpatch(outputs_changed);
                        (may_grow, slot.base_fit)
                    };
                    if !may_grow {
                        cleared += 1;
                        assert!(area_of(&child.decode_full(), &tech) <= base_fit);
                    }
                    let got = fit.eval(&child);
                    if exact > base_fit {
                        assert!(got > base_fit, "w{width} {}: {got} ≤ {base_fit}", tech.name());
                        skipped += usize::from(got.to_bits() != exact.to_bits());
                        continue;
                    }
                    assert_eq!(got.to_bits(), exact.to_bits(), "w{width} {}", tech.name());
                    parent = child;
                    // Promote as the evolution loop does, or now and then
                    // through an unscored rebase, which re-scores the parent.
                    if rng.gen_range(4) == 0 {
                        fit.rebase(&parent);
                        let base_fit = fit.incr.borrow().as_ref().unwrap().base_fit;
                        assert_eq!(base_fit.to_bits(), exact.to_bits());
                        rescored += 1;
                    } else {
                        fit.rebase_scored(&parent, got);
                        promoted += 1;
                    }
                }
                assert!(cleared > 0 && skipped > 0 && promoted > 0 && rescored > 0);
            }
        }
    }

    #[test]
    fn clones_start_with_an_empty_incremental_slot() {
        let nl = array_multiplier(6);
        let fit = Eq1Fitness::new(6, false, &Pmf::uniform(6), TechLibrary::unit(), 0.01).unwrap();
        let parent = chrom_of(&nl);
        fit.rebase(&parent);
        assert!(fit.incr.borrow().is_some());
        let clone = fit.clone();
        assert!(clone.incr.borrow().is_none());
        // … and the clone still scores identically through the full path.
        assert_eq!(fit.eval(&parent).to_bits(), clone.of(&parent).to_bits());
    }

    #[test]
    fn offspring_diff_lists_exactly_the_changed_nodes() {
        // Grids on and off a multiple of the diff's chunk, so both the
        // chunked comparison and the ragged tail run.
        use apx_cgp::mutate;
        use apx_rng::Xoshiro256;
        let nl = array_multiplier(6);
        let fit = Eq1Fitness::new(6, false, &Pmf::uniform(6), TechLibrary::unit(), 0.01).unwrap();
        let mut rng = Xoshiro256::from_seed(21);
        for spare in [0, 1, 5, 16, 23] {
            let cols = nl.gate_count() + spare;
            let parent = Chromosome::from_netlist(&nl, &FunctionSet::extended(), cols).unwrap();
            fit.rebase(&parent);
            let mut guard = fit.incr.borrow_mut();
            let slot = guard.as_mut().expect("width 6 runs incrementally");
            for h in [1, 5, 40, 400] {
                let mut child = parent.clone();
                mutate(&mut child, h, &mut rng);
                let (pg, cg) = (parent.genes(), child.genes());
                let want: Vec<u32> = (0..cols)
                    .filter(|&k| pg[3 * k..3 * k + 3] != cg[3 * k..3 * k + 3])
                    .map(|k| k as u32)
                    .collect();
                assert_eq!(slot.diff(&child), Some(pg[3 * cols..] != cg[3 * cols..]));
                assert_eq!(slot.changed, want, "cols={cols} h={h}");
            }
            // Same grid, another function set: the genes mean other gates.
            let other = Chromosome::from_netlist(&nl, &FunctionSet::standard(), cols).unwrap();
            assert_eq!(slot.diff(&other), None);
        }
    }

    #[test]
    fn loose_budget_admits_approximations() {
        let exact = array_multiplier(4);
        let approx = truncated_multiplier(4, 4);
        let fit = Eq1Fitness::new(4, false, &Pmf::uniform(4), TechLibrary::unit(), 0.05).unwrap();
        let f_exact = fit.of(&chrom_of(&exact));
        let f_approx = fit.of(&chrom_of(&approx));
        assert!(f_approx < f_exact, "approximation must be cheaper");
        assert!(f_approx.is_finite());
    }
}
