//! The `(1 + λ)` evolution strategy.

use crate::{mutate, Chromosome};
use apx_rng::Xoshiro256;

/// Parameters of a CGP run (paper defaults: `λ = 4`, `h = 5`).
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionConfig {
    /// Offspring per generation (λ).
    pub lambda: usize,
    /// Maximum genes mutated per offspring (h).
    pub mutations: usize,
    /// Generations to run.
    pub max_iterations: u64,
    /// RNG seed; equal seeds reproduce the run exactly.
    pub seed: u64,
    /// Retired and inert: [`evolve`] scores offspring inline on the
    /// calling thread whatever this says (sweeps parallelize across
    /// tasks instead). The field is kept only because the repository
    /// benchmark (`perfbench/`) still names it, and goes when the
    /// benchmark does.
    pub parallel: bool,
    /// Stop early once fitness reaches this value.
    pub target_fitness: Option<f64>,
    /// Record `(iteration, fitness)` history points on every improvement.
    pub keep_history: bool,
}

impl Default for EvolutionConfig {
    /// Paper parameters: `λ = 4`, `h = 5`.
    fn default() -> Self {
        EvolutionConfig {
            lambda: 4,
            mutations: 5,
            max_iterations: 10_000,
            seed: 0,
            parallel: false,
            target_fitness: None,
            keep_history: true,
        }
    }
}

/// Outcome of a CGP run.
#[derive(Debug, Clone)]
pub struct EvolutionResult {
    /// The best chromosome found (the final parent).
    pub best: Chromosome,
    /// Its fitness.
    pub best_fitness: f64,
    /// Generations executed.
    pub iterations: u64,
    /// Fitness evaluations spent (`1 + seeds + λ·iterations`).
    pub evaluations: u64,
    /// `(iteration, fitness)` at every strict improvement.
    pub history: Vec<(u64, f64)>,
    /// Which extra seed of [`evolve_seeded`] won the initial-parent
    /// selection, or `None` when the run started from `seed_parent`
    /// (always `None` for plain [`evolve`]).
    pub initial_seed: Option<usize>,
}

/// A fitness function with an optional incremental-evaluation hook.
///
/// The evolution loop calls [`FitnessFn::rebase`] every time the parent
/// chromosome changes — once after the initial parent is selected, then on
/// every promotion — so stateful implementations can cache simulation
/// state for the current parent and score offspring by re-simulating only
/// what a mutation touched (`apx_core`'s Eq. 1 fitness does exactly this
/// over `apx_metrics`' cached `WmedState`). Every `eval` between two
/// `rebase` calls is therefore guaranteed to see a chromosome derived from
/// the most recently rebased parent.
///
/// Between two rebases the loop reads offspring scores only through their
/// minimum (the earliest on ties) and the test of that minimum against the
/// parent's score (`≤` promotes). So a stateful fitness may return any
/// value above the parent's score — the one last handed to
/// [`FitnessFn::rebase_scored`] — for an offspring that cannot be
/// promoted, i.e. whose exact score is above it too; every score at or
/// below the parent's must be exact. The initial parent and any
/// warm-start seeds are scored and compared before the first rebase, so
/// a fitness must score exactly until it is first rebased.
///
/// Plain closures implement the trait with a no-op `rebase`, so stateless
/// fitnesses keep working unchanged:
///
/// ```
/// use apx_cgp::FitnessFn;
///
/// let f = |c: &apx_cgp::Chromosome| c.decode_active().active_gate_count() as f64;
/// fn assert_fitness(_: &impl FitnessFn) {}
/// assert_fitness(&f);
/// ```
pub trait FitnessFn {
    /// Scores a chromosome (lower is better; `f64::INFINITY` rejects a
    /// candidate outright).
    fn eval(&self, c: &Chromosome) -> f64;

    /// Notification that `parent` is the new baseline all following
    /// offspring are mutated from. Defaults to a no-op.
    fn rebase(&self, parent: &Chromosome) {
        let _ = parent;
    }

    /// [`rebase`](FitnessFn::rebase), but also handing over `parent`'s
    /// just-computed fitness — the evolution loop always knows it at
    /// promotion time, so stateful implementations can cache the value
    /// instead of re-scoring the parent. Defaults to plain `rebase`.
    fn rebase_scored(&self, parent: &Chromosome, fit: f64) {
        let _ = fit;
        self.rebase(parent);
    }
}

impl<F: Fn(&Chromosome) -> f64> FitnessFn for F {
    fn eval(&self, c: &Chromosome) -> f64 {
        self(c)
    }
}

/// Runs the `(1 + λ)` strategy from `seed_parent`, minimizing `fitness`.
///
/// Each generation copies the parent into λ offspring buffers (reused
/// across generations), mutates every copy with up to `h` gene redraws,
/// evaluates all offspring and promotes the best offspring whose fitness
/// is **less than or equal to** the parent's — the neutral genetic drift
/// that CGP's redundant representation is designed for (paper §III-C).
///
/// Offspring are scored inline, one after another on the calling thread,
/// so `fitness` may keep unsynchronized state (a `Cell`, a `RefCell`).
/// Parallelism belongs one level up: a sweep runs many independent runs
/// at once.
///
/// `fitness` may return `f64::INFINITY` to reject a candidate outright
/// (Eq. 1 does exactly that when the WMED budget is violated).
///
/// # Panics
///
/// Panics if `lambda == 0` or `mutations == 0`. A panic of `fitness`
/// propagates to the caller.
pub fn evolve<F>(seed_parent: &Chromosome, fitness: F, config: &EvolutionConfig) -> EvolutionResult
where
    F: FitnessFn,
{
    evolve_seeded(seed_parent, &[], fitness, config)
}

/// [`evolve`] with a warm-start hook: before the first generation, every
/// chromosome in `seeds` is evaluated alongside `seed_parent` and the
/// **strictly best** one becomes the initial parent (ties keep
/// `seed_parent`, then the earliest seed). An empty seed list reproduces
/// [`evolve`] bit for bit; seeds that all lose leave the search
/// trajectory identical too (seed evaluation happens before the run's
/// RNG stream is touched), with only `evaluations` counting the extra
/// `seeds.len()` warm-start fitness calls.
///
/// This is the component-library entry point: candidates re-scored from a
/// previous design-space exploration start the search near the Pareto
/// front instead of at the exact circuit every time. Seeds may have any
/// grid geometry (`cols` need not match `seed_parent`); they only need the
/// same primary input/output counts for the fitness to be meaningful,
/// which the caller is responsible for.
///
/// `EvolutionResult::initial_seed` reports which seed (index into
/// `seeds`) won, or `None` when the run started from `seed_parent`.
///
/// # Panics
///
/// Panics if `lambda == 0` or `mutations == 0`. A panic of `fitness`
/// propagates to the caller.
pub fn evolve_seeded<F>(
    seed_parent: &Chromosome,
    seeds: &[Chromosome],
    fitness: F,
    config: &EvolutionConfig,
) -> EvolutionResult
where
    F: FitnessFn,
{
    assert!(config.lambda > 0, "lambda must be at least 1");
    assert!(config.mutations > 0, "mutation rate must be at least 1");
    let mut parent = seed_parent.clone();
    let mut parent_fit = fitness.eval(&parent);
    let mut initial_seed = None;
    for (i, seed) in seeds.iter().enumerate() {
        let fit = fitness.eval(seed);
        if fit < parent_fit {
            parent = seed.clone();
            parent_fit = fit;
            initial_seed = Some(i);
        }
    }
    // The initial parent is now fixed: let stateful fitnesses cache it.
    fitness.rebase_scored(&parent, parent_fit);
    let mut evaluations = 1 + seeds.len() as u64;
    let mut rng = Xoshiro256::from_seed(config.seed);
    let mut history = Vec::new();
    if config.keep_history {
        history.push((0, parent_fit));
    }
    let mut iterations = 0u64;
    // λ offspring buffers, overwritten with the parent in place every
    // generation; a promoted child swaps into the parent slot.
    let mut children = vec![parent.clone(); config.lambda];
    let mut fits = vec![0.0f64; config.lambda];
    for iter in 1..=config.max_iterations {
        iterations = iter;
        if let Some(target) = config.target_fitness {
            if parent_fit <= target {
                iterations = iter - 1;
                break;
            }
        }
        for (child, fit) in children.iter_mut().zip(&mut fits) {
            child.clone_from(&parent);
            mutate(child, config.mutations, &mut rng);
            *fit = fitness.eval(child);
        }
        evaluations += config.lambda as u64;
        // Best offspring; ties broken toward the earliest (deterministic).
        let (best_idx, best_fit) = fits
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("lambda >= 1");
        // Neutral drift: equal fitness replaces the parent.
        if best_fit <= parent_fit {
            if best_fit < parent_fit && config.keep_history {
                history.push((iter, best_fit));
            }
            std::mem::swap(&mut parent, &mut children[best_idx]);
            parent_fit = best_fit;
            fitness.rebase_scored(&parent, parent_fit);
        }
    }
    EvolutionResult {
        best: parent,
        best_fitness: parent_fit,
        iterations,
        evaluations,
        history,
        initial_seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionSet;
    use apx_arith::array_multiplier;
    use apx_gates::Exhaustive;

    /// Area-under-correctness fitness: enormous penalty per wrong output
    /// bit plus gate count — a miniature of the paper's Eq. 1.
    fn exactness_area_fitness(width: u32) -> impl Fn(&Chromosome) -> f64 {
        let golden = Exhaustive::new(2 * width as usize).output_table(&array_multiplier(width));
        move |c: &Chromosome| {
            let nl = c.decode_active();
            let table = Exhaustive::new(nl.num_inputs()).output_table(&nl);
            let wrong: u64 =
                table.iter().zip(&golden).map(|(a, b)| (a ^ b).count_ones() as u64).sum();
            wrong as f64 * 1e6 + nl.active_gate_count() as f64
        }
    }

    #[test]
    fn evolution_reduces_multiplier_area_without_breaking_it() {
        let nl = array_multiplier(2);
        let funcs = FunctionSet::standard();
        let seed = Chromosome::from_netlist(&nl, &funcs, nl.gate_count() + 12).unwrap();
        let fitness = exactness_area_fitness(2);
        let start = fitness(&seed);
        let result = evolve(
            &seed,
            &fitness,
            &EvolutionConfig { max_iterations: 3000, seed: 7, ..Default::default() },
        );
        assert!(result.best_fitness <= start);
        // Still exact (fitness < 1e6 means zero wrong bits).
        assert!(
            result.best_fitness < 1e6,
            "evolved multiplier must stay exact, fitness {}",
            result.best_fitness
        );
        // The textbook 2-bit array multiplier (8 gates here) is not
        // minimal; evolution should shave at least one gate.
        assert!(result.best_fitness < start, "expected improvement from {start}");
    }

    #[test]
    fn runs_are_deterministic() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let fitness = exactness_area_fitness(2);
        let config = EvolutionConfig { max_iterations: 200, seed: 42, ..Default::default() };
        let a = evolve(&seed, &fitness, &config);
        let b = evolve(&seed, &fitness, &config);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn target_fitness_stops_early() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let fitness = exactness_area_fitness(2);
        let result = evolve(
            &seed,
            &fitness,
            &EvolutionConfig {
                max_iterations: 10_000,
                target_fitness: Some(fitness(&seed)),
                seed: 1,
                ..Default::default()
            },
        );
        assert_eq!(result.iterations, 0, "seed already meets the target");
        assert_eq!(result.evaluations, 1);
    }

    #[test]
    fn history_is_monotone_decreasing() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 10).unwrap();
        let fitness = exactness_area_fitness(2);
        let result = evolve(
            &seed,
            &fitness,
            &EvolutionConfig { max_iterations: 1500, seed: 3, ..Default::default() },
        );
        for pair in result.history.windows(2) {
            assert!(pair[1].1 < pair[0].1, "history must strictly improve");
            assert!(pair[1].0 > pair[0].0);
        }
        assert_eq!(result.evaluations, 1 + 4 * result.iterations);
    }

    #[test]
    fn a_fitness_need_not_be_sync() {
        // Offspring are scored on the calling thread, so a fitness may
        // keep plain `Cell` state; every call is one evaluation.
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let calls = std::cell::Cell::new(0u64);
        let fitness = |c: &Chromosome| {
            calls.set(calls.get() + 1);
            c.decode_active().active_gate_count() as f64
        };
        let result = evolve(
            &seed,
            fitness,
            &EvolutionConfig { max_iterations: 40, seed: 9, ..Default::default() },
        );
        assert_eq!(calls.get(), result.evaluations);
        assert_eq!(result.evaluations, 1 + 4 * 40);
    }

    #[test]
    fn empty_seed_list_reproduces_plain_evolve_bit_for_bit() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let fitness = exactness_area_fitness(2);
        let config = EvolutionConfig { max_iterations: 300, seed: 11, ..Default::default() };
        let plain = evolve(&seed, &fitness, &config);
        let seeded = evolve_seeded(&seed, &[], &fitness, &config);
        assert_eq!(plain.best, seeded.best);
        assert_eq!(plain.best_fitness, seeded.best_fitness);
        assert_eq!(plain.history, seeded.history);
        assert_eq!(plain.evaluations, seeded.evaluations);
        assert_eq!(seeded.initial_seed, None);
    }

    #[test]
    fn strictly_better_seed_wins_the_initial_parent_selection() {
        let nl = array_multiplier(2);
        let funcs = FunctionSet::standard();
        let parent = Chromosome::from_netlist(&nl, &funcs, nl.gate_count() + 8).unwrap();
        let fitness = exactness_area_fitness(2);
        // Shrink the grid's spare columns: an already-evolved, smaller
        // exact multiplier (different cols on purpose) seeds the run.
        let better = evolve(
            &parent,
            &fitness,
            &EvolutionConfig { max_iterations: 3000, seed: 7, ..Default::default() },
        )
        .best;
        assert!(fitness(&better) < fitness(&parent), "evolution found a smaller circuit");
        // A worthless seed (ties lose) and the genuinely better one.
        let result = evolve_seeded(
            &parent,
            &[parent.clone(), better.clone()],
            &fitness,
            &EvolutionConfig { max_iterations: 1, seed: 3, ..Default::default() },
        );
        assert_eq!(result.initial_seed, Some(1), "the strictly better seed must win");
        assert!(result.best_fitness <= fitness(&better));
        assert_eq!(result.evaluations, 1 + 2 + 4, "parent + 2 seeds + lambda");
        // Infeasible (infinite-fitness) seeds never displace the parent.
        let rejected = evolve_seeded(
            &parent,
            &[better],
            |c: &Chromosome| if fitness(c) < fitness(&parent) { f64::INFINITY } else { fitness(c) },
            &EvolutionConfig { max_iterations: 1, seed: 3, ..Default::default() },
        );
        assert_eq!(rejected.initial_seed, None);
    }

    #[test]
    fn rebase_tracks_every_parent_change() {
        use std::sync::Mutex;

        /// Wraps a closure fitness and checks the incremental contract:
        /// every evaluated offspring differs from the latest rebased parent
        /// in at most `3·mutations` genes (a mutation redraws whole genes
        /// of the parent), and every promotion is announced via `rebase`
        /// before the next generation is scored.
        struct Spy<F> {
            inner: F,
            state: std::sync::Arc<Mutex<SpyState>>,
        }
        #[derive(Default)]
        struct SpyState {
            base: Option<Chromosome>,
            rebases: usize,
            evals_since_rebase: usize,
        }
        impl<F: Fn(&Chromosome) -> f64> FitnessFn for Spy<F> {
            fn eval(&self, c: &Chromosome) -> f64 {
                let mut st = self.state.lock().unwrap();
                if let Some(base) = &st.base {
                    let diff = base.genes().iter().zip(c.genes()).filter(|(a, b)| a != b).count();
                    assert!(diff <= 3 * 5, "offspring drifted {diff} genes from rebased parent");
                }
                st.evals_since_rebase += 1;
                (self.inner)(c)
            }
            fn rebase(&self, parent: &Chromosome) {
                let mut st = self.state.lock().unwrap();
                st.base = Some(parent.clone());
                st.rebases += 1;
                st.evals_since_rebase = 0;
            }
        }

        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let state = std::sync::Arc::new(Mutex::new(SpyState::default()));
        let spy = Spy { inner: exactness_area_fitness(2), state: state.clone() };
        let result = evolve(
            &seed,
            spy,
            &EvolutionConfig { max_iterations: 300, seed: 5, ..Default::default() },
        );
        let st = state.lock().unwrap();
        // One initial rebase plus one per promotion; promotions include
        // neutral drift, so there are at least as many as strict
        // improvements (history also counts the iteration-0 entry).
        assert!(st.rebases >= result.history.len(), "{} < {}", st.rebases, result.history.len());
        assert_eq!(st.base.as_ref(), Some(&result.best), "last rebase is the final parent");
        // Same trajectory as the plain closure.
        let plain = evolve(
            &seed,
            exactness_area_fitness(2),
            &EvolutionConfig { max_iterations: 300, seed: 5, ..Default::default() },
        );
        assert_eq!(plain.best, result.best);
        assert_eq!(plain.best_fitness, result.best_fitness);
    }

    #[test]
    fn scores_above_the_parent_only_need_to_stay_above_it() {
        use std::cell::Cell;

        /// Replaces every score above the one last handed to
        /// `rebase_scored` with `lift(score, parent)`, another value above
        /// the parent's.
        struct Lifted<'a, F> {
            inner: F,
            lift: fn(f64, f64) -> f64,
            parent: Cell<Option<f64>>,
            lifted: &'a Cell<u64>,
        }
        impl<F: Fn(&Chromosome) -> f64> FitnessFn for Lifted<'_, F> {
            fn eval(&self, c: &Chromosome) -> f64 {
                let fit = (self.inner)(c);
                match self.parent.get() {
                    Some(parent) if fit > parent => {
                        self.lifted.set(self.lifted.get() + 1);
                        (self.lift)(fit, parent)
                    }
                    _ => fit,
                }
            }
            fn rebase_scored(&self, _: &Chromosome, fit: f64) {
                self.parent.set(Some(fit));
            }
        }

        // Eq. 1 in miniature: an exact circuit scores its gate count, any
        // other `∞`.
        let exact_area = || {
            let fitness = exactness_area_fitness(2);
            move |c: &Chromosome| Some(fitness(c)).filter(|&f| f < 1e6).unwrap_or(f64::INFINITY)
        };
        let nl = array_multiplier(2);
        let funcs = FunctionSet::standard();
        let seed = Chromosome::from_netlist(&nl, &funcs, nl.gate_count() + 8).unwrap();
        let config = EvolutionConfig { max_iterations: 600, seed: 17, ..Default::default() };
        // Warm-start lists: one whose evolved seed wins, one whose seeds
        // all lose (a tie and a broken circuit).
        let better = evolve(&seed, exact_area(), &config).best;
        let mut broken = seed.clone();
        let outputs = 3 * broken.cols();
        broken.genes_mut()[outputs] = 0;
        let seed_lists = [
            (vec![], None),
            (vec![broken.clone(), better], Some(1)),
            (vec![seed.clone(), broken], None),
        ];
        let bits = |r: &EvolutionResult| {
            let history: Vec<_> = r.history.iter().map(|&(i, f)| (i, f.to_bits())).collect();
            let fit = r.best_fitness.to_bits();
            (r.best.clone(), fit, r.iterations, r.evaluations, history, r.initial_seed)
        };
        for (seeds, initial_seed) in &seed_lists {
            let want = evolve_seeded(&seed, seeds, exact_area(), &config);
            assert_eq!(want.initial_seed, *initial_seed);
            // `∞`, or the score + 1 with `∞` brought down to the parent's
            // + 1 (Eq. 1's area skip turns an `∞` into a finite area).
            let lifts: [fn(f64, f64) -> f64; 2] = [
                |_, _| f64::INFINITY,
                |fit, parent| if fit.is_finite() { fit } else { parent } + 1.0,
            ];
            for lift in lifts {
                let lifted = Cell::new(0);
                let fitness =
                    Lifted { inner: exact_area(), lift, parent: Cell::new(None), lifted: &lifted };
                let got = evolve_seeded(&seed, seeds, fitness, &config);
                assert_eq!(bits(&got), bits(&want), "{} seeds", seeds.len());
                assert!(lifted.get() > 100, "most offspring score above the parent");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn zero_lambda_panics() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count()).unwrap();
        let _ = evolve(
            &seed,
            |_: &Chromosome| 0.0,
            &EvolutionConfig { lambda: 0, ..Default::default() },
        );
    }
}
