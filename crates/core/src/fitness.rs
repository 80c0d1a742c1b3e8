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
    /// before the score is returned.
    net: Netlist,
    /// Cached full-grid signal rows for `net`.
    state: WmedState,
    /// Per-signal activity of the base (`ni + k` for node `k`): mutations
    /// confined to inactive nodes cannot change the phenotype.
    base_active: Vec<bool>,
    /// The base's own fitness, for neutral-mutation shortcuts.
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
    /// node and output checked as `Netlist::validate` would. Whatever the
    /// outcome, [`IncrSlot::unpatch`] restores the base.
    fn patch(&mut self, child: &Chromosome, outputs_changed: bool) -> Result<(), NetlistError> {
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
/// fitness without touching the simulator at all. Every score is
/// bit-identical to the stateless [`Eq1Fitness::of`], so search
/// trajectories — and therefore sweep caches — do not depend on whether
/// the shortcut was available.
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
    /// Scores `chromosome`; bit-identical to [`Eq1Fitness::of`], but after
    /// a [`FitnessFn::rebase`] only the mutated fanout cone is
    /// re-simulated, and purely neutral mutations (inactive genes only,
    /// outputs untouched) return the cached parent fitness outright.
    fn eval(&self, chromosome: &Chromosome) -> f64 {
        let mut guard = self.incr.borrow_mut();
        let Some(slot) = guard.as_mut() else { return self.of(chromosome) };
        let Some(outputs_changed) = slot.diff(chromosome) else {
            return self.of(chromosome);
        };
        if slot.is_neutral(outputs_changed) {
            return slot.base_fit;
        }
        if let Err(e) = slot.patch(chromosome, outputs_changed) {
            slot.unpatch(outputs_changed);
            panic!("chromosome encodes a valid netlist: {e}");
        }
        debug_assert_eq!(slot.net, chromosome.decode_full(), "the patch is the full decode");
        let fit = self.rescore(&mut slot.state, &slot.net, &slot.changed);
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
    /// Skipped entirely — leaving subsequent [`eval`](FitnessFn::eval)
    /// calls on the stateless path — when the evaluator cannot run
    /// incrementally or the cached rows would exceed [`MAX_STATE_BYTES`].
    fn rebase_impl(&self, parent: &Chromosome, known_fit: Option<f64>) {
        if !self.evaluator.supports_incremental() {
            return;
        }
        let mut guard = self.incr.borrow_mut();
        // Whether any output gene changed, when a slot of the parent's
        // shape exists (the diff also fills the slot's `changed` list).
        let diff = guard.as_mut().and_then(|slot| slot.diff(parent));
        if let (Some(slot), Some(outputs_changed)) = (guard.as_ref(), diff) {
            if slot.is_neutral(outputs_changed) {
                // Neutral drift: the promotion changed only nodes that are
                // inactive in the slot base, so the active cone — and with
                // it `base_fit`/`base_active` — is untouched. The delta
                // path diffs offspring against the slot base (not the
                // parent), so the cached rows remain exactly right;
                // committing here would re-simulate a dead fanout cone over
                // every block for nothing. Keep the slot as is, and decode
                // nothing: a slot of this shape passed the footprint check
                // below when it was built.
                return;
            }
        }
        let full = parent.decode_full();
        if self.evaluator.state_bytes(&full) > MAX_STATE_BYTES {
            *guard = None;
            return;
        }
        let (state, changed) = match (guard.take(), diff) {
            // Rebase the existing state: re-simulate the changed cone in
            // place instead of rebuilding every cached row.
            (Some(mut slot), Some(_)) => {
                self.evaluator.commit_state(&mut slot.state, &full, &slot.changed);
                (slot.state, slot.changed)
            }
            (Some(slot), None) => (self.evaluator.new_state(&full), slot.changed),
            (None, _) => (self.evaluator.new_state(&full), Vec::new()),
        };
        let mut slot = IncrSlot {
            base: parent.clone(),
            base_active: full.active_mask(),
            net: full,
            state,
            base_fit: f64::INFINITY,
            changed,
        };
        slot.base_fit = match known_fit {
            // The promotion's own score — bit-identical to what a re-score
            // from the (freshly committed) cache would produce.
            Some(fit) => fit,
            None => self.rescore(&mut slot.state, &slot.net, &[]),
        };
        *guard = Some(slot);
    }

    /// Scores `full`, whose nodes differ from the state's base only in
    /// `changed`, from the cached state without perturbing it.
    fn rescore(&self, state: &mut WmedState, full: &Netlist, changed: &[u32]) -> f64 {
        match self.evaluator.wmed_bounded_delta(state, full, changed, self.threshold) {
            // `area_of` prices the active cone only, in grid order — the
            // same terms, in the same order, as `of`'s compacted decode.
            Some(_) => area_of(full, &self.tech),
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
        // values keep the symbolic run cheap.
        use apx_arith::Operator;
        use apx_cgp::{evolve, EvolutionConfig, EvolutionResult};
        use apx_metrics::EvalBackend;
        let nl = apx_arith::array_multiplier(6);
        let mut weights = vec![0.0; 64];
        for (x, w) in [(3, 4.0), (17, 2.0), (40, 1.0), (63, 3.0)] {
            weights[x] = w;
        }
        let pmf = Pmf::from_weights(6, weights).unwrap();
        let fitness = |backend| {
            let eval =
                CircuitEvaluator::for_operator_with_backend(Operator::Mul, 6, false, &pmf, backend)
                    .unwrap();
            Eq1Fitness::with_evaluator(Arc::new(eval), TechLibrary::nangate45(), 0.01)
        };
        let seed = chrom_of(&nl);
        let cfg = EvolutionConfig {
            max_iterations: 120,
            seed: 42,
            keep_history: true,
            ..EvolutionConfig::default()
        };
        let stateless = fitness(EvalBackend::BitParallel);
        let want = evolve(&seed, move |c: &Chromosome| stateless.of(c), &cfg);
        let bits = |r: &EvolutionResult| {
            let history: Vec<_> = r.history.iter().map(|&(i, f)| (i, f.to_bits())).collect();
            (r.best.clone(), r.best_fitness.to_bits(), r.evaluations, history)
        };
        for backend in [EvalBackend::BitParallel, EvalBackend::Scalar, EvalBackend::Symbolic] {
            let fit = fitness(backend);
            assert_eq!(fit.evaluator().supports_incremental(), backend == EvalBackend::BitParallel);
            let got = evolve(&seed, fit, &cfg);
            assert_eq!(bits(&got), bits(&want), "{backend} trajectory differs");
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
