//! Eq. 1: area under a WMED budget.

use apx_cgp::{Chromosome, FitnessFn};
use apx_dist::Pmf;
use apx_metrics::{CircuitEvaluator, WmedState};
use apx_techlib::{area_of, TechLibrary};
use std::sync::{Arc, Mutex};

/// Cap on the cached-simulation footprint before the incremental protocol
/// is declined (the CGP inner loop then falls back to full evaluation).
const MAX_STATE_BYTES: usize = 32 << 20;

/// Cached incremental-evaluation context: the most recently rebased parent
/// and the simulation state describing it.
#[derive(Debug)]
struct IncrSlot {
    /// The chromosome the cached rows describe. May lag the evolution
    /// loop's current parent by neutral (dead-node) drift: deltas and
    /// shortcuts diff offspring against this base, which yields the same
    /// exact scores.
    base: Chromosome,
    /// Cached full-grid signal rows for `base.decode_full()`.
    state: WmedState,
    /// Per-signal activity of the base (`ni + k` for node `k`): mutations
    /// confined to inactive nodes cannot change the phenotype.
    base_active: Vec<bool>,
    /// The base's own fitness, for neutral-mutation shortcuts.
    base_fit: f64,
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
/// ([`CircuitEvaluator::wmed_bounded_delta`]), and mutations confined to
/// inactive genes short-circuit to the parent's fitness without touching
/// the simulator at all. Every score is bit-identical to the stateless
/// [`Eq1Fitness::of`], so search trajectories — and therefore sweep
/// caches — do not depend on whether the shortcut was available.
#[derive(Debug)]
pub struct Eq1Fitness {
    evaluator: Arc<CircuitEvaluator>,
    tech: TechLibrary,
    threshold: f64,
    /// Incremental context; `None` until the first [`FitnessFn::rebase`].
    incr: Mutex<Option<IncrSlot>>,
}

impl Clone for Eq1Fitness {
    /// Clones share the evaluator but start with a fresh (empty)
    /// incremental slot — cached state is tied to one search loop.
    fn clone(&self) -> Self {
        Eq1Fitness {
            evaluator: Arc::clone(&self.evaluator),
            tech: self.tech.clone(),
            threshold: self.threshold,
            incr: Mutex::new(None),
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
        Eq1Fitness { evaluator, tech, threshold, incr: Mutex::new(None) }
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

    /// Gene-level diff against `base`: the node indices whose gene triple
    /// differs (a safe superset of the functionally changed nodes —
    /// e.g. the unused second operand of a unary gate counts too), plus
    /// whether any output gene differs. Returns `None` on a shape
    /// mismatch, which forces the stateless path.
    fn diff_nodes(base: &Chromosome, child: &Chromosome) -> Option<(Vec<u32>, bool)> {
        if base.cols() != child.cols() || base.genes().len() != child.genes().len() {
            return None;
        }
        let (bg, cg) = (base.genes(), child.genes());
        let changed: Vec<u32> = (0..base.cols())
            .filter(|&k| bg[3 * k..3 * k + 3] != cg[3 * k..3 * k + 3])
            .map(|k| k as u32)
            .collect();
        let outputs_changed = bg[3 * base.cols()..] != cg[3 * base.cols()..];
        Some((changed, outputs_changed))
    }
}

impl FitnessFn for Eq1Fitness {
    /// Scores `chromosome`; bit-identical to [`Eq1Fitness::of`], but after
    /// a [`FitnessFn::rebase`] only the mutated fanout cone is
    /// re-simulated, and purely neutral mutations (inactive genes only,
    /// outputs untouched) return the cached parent fitness outright.
    fn eval(&self, chromosome: &Chromosome) -> f64 {
        // `try_lock`: under parallel offspring scoring the slot is a
        // single resource — a contended sibling just takes the (equally
        // correct) stateless path instead of serializing on the lock.
        let Ok(mut guard) = self.incr.try_lock() else { return self.of(chromosome) };
        let Some(slot) = guard.as_mut() else { return self.of(chromosome) };
        let Some((changed, outputs_changed)) = Self::diff_nodes(&slot.base, chromosome) else {
            return self.of(chromosome);
        };
        if !outputs_changed {
            // Inactive nodes are never read by the backward activity walk,
            // so mutating only them leaves the phenotype — and hence the
            // fitness — exactly the parent's.
            let ni = chromosome.num_inputs();
            if changed.iter().all(|&k| !slot.base_active[ni + k as usize]) {
                return slot.base_fit;
            }
        }
        let full = chromosome.decode_full();
        match self.evaluator.wmed_bounded_delta(&mut slot.state, &full, &changed, self.threshold) {
            // `area_of` prices the active cone only, in grid order — the
            // same terms, in the same order, as `of`'s compacted decode.
            Some(_) => area_of(&full, &self.tech),
            None => f64::INFINITY,
        }
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
        let Ok(mut guard) = self.incr.lock() else { return };
        let full = parent.decode_full();
        if self.evaluator.state_bytes(&full) > MAX_STATE_BYTES {
            *guard = None;
            return;
        }
        let state = match guard.take() {
            // Rebase the existing state: re-simulate the changed cone in
            // place instead of rebuilding every cached row.
            Some(mut slot) => match Self::diff_nodes(&slot.base, parent) {
                Some((changed, outputs_changed)) => {
                    let ni = parent.num_inputs();
                    if !outputs_changed
                        && changed.iter().all(|&k| !slot.base_active[ni + k as usize])
                    {
                        // Neutral drift: the promotion changed only nodes
                        // that are inactive in the slot base, so the active
                        // cone — and with it `base_fit`/`base_active` — is
                        // untouched. The delta path diffs offspring against
                        // the slot base (not the parent), so the cached
                        // rows remain exactly right; committing here would
                        // re-simulate a dead fanout cone over every block
                        // for nothing. Keep the slot as is.
                        *guard = Some(slot);
                        return;
                    }
                    self.evaluator.commit_state(&mut slot.state, &full, &changed);
                    slot.state
                }
                None => self.evaluator.new_state(&full),
            },
            None => self.evaluator.new_state(&full),
        };
        let mut slot = IncrSlot {
            base: parent.clone(),
            state,
            base_active: full.active_mask(),
            base_fit: f64::INFINITY,
        };
        slot.base_fit = match known_fit {
            // The promotion's own score — bit-identical to what a re-score
            // from the (freshly committed) cache would produce.
            Some(fit) => fit,
            None => self.rescore(&mut slot.state, &full, &[]),
        };
        *guard = Some(slot);
    }

    /// Scores `full` from the cached state without perturbing it.
    fn rescore(&self, state: &mut WmedState, full: &apx_gates::Netlist, changed: &[u32]) -> f64 {
        match self.evaluator.wmed_bounded_delta(state, full, changed, self.threshold) {
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
        assert!(fit.incr.lock().unwrap().is_some());
        let clone = fit.clone();
        assert!(clone.incr.lock().unwrap().is_none());
        // … and the clone still scores identically through the full path.
        assert_eq!(fit.eval(&parent).to_bits(), clone.of(&parent).to_bits());
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
