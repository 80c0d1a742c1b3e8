//! Spans and counters recorded from the benchmark's own files, around
//! each call into a layer's public functions.
//!
//! A [`Layers`] accumulator is kept per thread of work (the main thread,
//! and one per pool task) and merged after the pool joins, so recording
//! never contends. [`NoTrace`] is the untraced twin: the same call sites,
//! no clock reads.

use apx_cgp::{Chromosome, FitnessFn};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Where a call site reports its spans and counts.
pub trait Probe {
    /// Runs `f` as one call of span `name` (time and call count).
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Adds `n` to counter `name`.
    fn count(&mut self, name: &'static str, n: u64);
}

/// Tracing off: spans just run their body.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Probe for NoTrace {
    fn span<R>(&mut self, _: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    fn count(&mut self, _: &'static str, _: u64) {}
}

/// Accumulated spans (seconds and calls) and counters of one thread of
/// work.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Seconds per span name.
    pub secs: BTreeMap<&'static str, f64>,
    /// Calls per span name, plus plain counters.
    pub counts: BTreeMap<&'static str, u64>,
    /// Seconds spent in outermost spans — the part of this thread's time
    /// some layer accounts for (nested spans are not added twice).
    pub covered_s: f64,
    depth: usize,
}

impl Probe for Layers {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = Instant::now();
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        let dt = start.elapsed().as_secs_f64();
        self.add(name, dt, 1);
        if self.depth == 0 {
            self.covered_s += dt;
        }
        r
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }
}

impl Layers {
    /// Adds `secs` and `calls` to span `name`.
    pub fn add(&mut self, name: &'static str, secs: f64, calls: u64) {
        *self.secs.entry(name).or_default() += secs;
        *self.counts.entry(name).or_default() += calls;
    }

    /// Folds another thread's spans and counters into this one (its
    /// covered time stays its own: pool time is accounted by the pool).
    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.secs {
            *self.secs.entry(k).or_default() += v;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    /// Seconds recorded under `name` (0 when never recorded).
    #[must_use]
    pub fn s(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Calls or count recorded under `name` (0 when never recorded).
    #[must_use]
    pub fn n(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// What one CGP run's fitness calls did, by outcome.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Parent fitness most recently handed to `rebase_scored` (`NaN`
    /// when unknown), against which an eval counts as neutral.
    parent_fit: f64,
    infeasible: (u64, f64),
    neutral: (u64, f64),
    feasible: (u64, f64),
    rebase: (u64, f64),
}

/// The calls and seconds a [`TracedFitness`] records, kept outside the
/// wrapper because the evolution loop takes the fitness by value.
#[derive(Debug)]
pub struct FitnessTally(Mutex<Tally>);

impl Default for FitnessTally {
    fn default() -> Self {
        FitnessTally(Mutex::new(Tally { parent_fit: f64::NAN, ..Tally::default() }))
    }
}

impl FitnessTally {
    fn lock(&self) -> std::sync::MutexGuard<'_, Tally> {
        self.0.lock().expect("fitness tally lock is never held across a panic")
    }

    /// Adds the tally to `layers` under the `fitness.*` names.
    pub fn report(&self, layers: &mut Layers) {
        let t = *self.lock();
        layers.add("fitness.infeasible", t.infeasible.1, t.infeasible.0);
        layers.add("fitness.neutral", t.neutral.1, t.neutral.0);
        layers.add("fitness.feasible", t.feasible.1, t.feasible.0);
        layers.add("fitness.rebase", t.rebase.1, t.rebase.0);
    }
}

/// A delegating [`FitnessFn`] that times every call of all three trait
/// methods and classifies each `eval` as infeasible (`∞`), neutral (the
/// current parent's fitness) or feasible (any other finite score).
///
/// All three methods forward to the wrapped fitness: dropping `rebase` or
/// `rebase_scored` would silently switch the wrapped incremental fitness
/// to its stateless path and measure different work.
#[derive(Debug)]
pub struct TracedFitness<'a, F> {
    inner: F,
    tally: &'a FitnessTally,
}

impl<'a, F: FitnessFn> TracedFitness<'a, F> {
    /// Wraps `inner`, recording into `tally`.
    pub fn new(inner: F, tally: &'a FitnessTally) -> Self {
        TracedFitness { inner, tally }
    }
}

impl<F: FitnessFn> FitnessFn for TracedFitness<'_, F> {
    fn eval(&self, c: &Chromosome) -> f64 {
        let start = Instant::now();
        let fit = self.inner.eval(c);
        let dt = start.elapsed().as_secs_f64();
        let mut t = self.tally.lock();
        let slot = if fit.is_infinite() {
            &mut t.infeasible
        } else if fit.to_bits() == t.parent_fit.to_bits() {
            &mut t.neutral
        } else {
            &mut t.feasible
        };
        slot.0 += 1;
        slot.1 += dt;
        fit
    }

    fn rebase(&self, parent: &Chromosome) {
        let start = Instant::now();
        self.inner.rebase(parent);
        let dt = start.elapsed().as_secs_f64();
        let mut t = self.tally.lock();
        t.parent_fit = f64::NAN;
        t.rebase.0 += 1;
        t.rebase.1 += dt;
    }

    fn rebase_scored(&self, parent: &Chromosome, fit: f64) {
        let start = Instant::now();
        self.inner.rebase_scored(parent, fit);
        let dt = start.elapsed().as_secs_f64();
        let mut t = self.tally.lock();
        t.parent_fit = fit;
        t.rebase.0 += 1;
        t.rebase.1 += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_cgp::FunctionSet;

    /// Records which trait method reached the wrapped fitness.
    #[derive(Default)]
    struct Recorder {
        calls: Mutex<Vec<&'static str>>,
    }

    impl FitnessFn for Recorder {
        fn eval(&self, c: &Chromosome) -> f64 {
            self.calls.lock().unwrap().push("eval");
            if c.cols() == 0 {
                f64::INFINITY
            } else {
                7.0
            }
        }
        fn rebase(&self, _: &Chromosome) {
            self.calls.lock().unwrap().push("rebase");
        }
        fn rebase_scored(&self, _: &Chromosome, _: f64) {
            self.calls.lock().unwrap().push("rebase_scored");
        }
    }

    fn chromosome(cols: usize) -> Chromosome {
        let nl = apx_arith::array_multiplier(2);
        Chromosome::from_netlist(&nl, &FunctionSet::extended(), nl.gate_count() + cols).unwrap()
    }

    #[test]
    fn wrapper_forwards_all_three_methods_and_classifies_evals() {
        let tally = FitnessTally::default();
        let traced = TracedFitness::new(Recorder::default(), &tally);
        let c = chromosome(2);
        assert_eq!(traced.eval(&c), 7.0, "no parent yet: a finite score is feasible");
        traced.rebase_scored(&c, 7.0);
        assert_eq!(traced.eval(&c), 7.0, "the parent's score: neutral");
        traced.rebase(&c);
        assert_eq!(traced.eval(&c), 7.0, "after an unscored rebase the parent is unknown");
        assert_eq!(
            *traced.inner.calls.lock().unwrap(),
            ["eval", "rebase_scored", "eval", "rebase", "eval"]
        );
        let mut layers = Layers::default();
        tally.report(&mut layers);
        assert_eq!(layers.n("fitness.feasible"), 2);
        assert_eq!(layers.n("fitness.neutral"), 1);
        assert_eq!(layers.n("fitness.infeasible"), 0);
        assert_eq!(layers.n("fitness.rebase"), 2);
    }

    #[test]
    fn traced_evolution_is_bit_identical_to_the_bare_fitness() {
        // The incremental Eq. 1 fitness behind the wrapper must follow the
        // same trajectory as without it: the wrapper may only observe.
        use apx_cgp::{evolve, EvolutionConfig};
        use apx_core::Eq1Fitness;
        let pmf = apx_dist::Pmf::half_normal(6, 10.0);
        let fit = Eq1Fitness::new(6, false, &pmf, apx_techlib::TechLibrary::nangate45(), 0.01)
            .expect("width 6 evaluator");
        let nl = apx_arith::array_multiplier(6);
        let seed = Chromosome::from_netlist(&nl, &FunctionSet::extended(), nl.gate_count() + 10)
            .expect("seed encodes");
        let cfg = EvolutionConfig { max_iterations: 150, seed: 3, ..EvolutionConfig::default() };
        let bare = evolve(&seed, fit.clone(), &cfg);
        let tally = FitnessTally::default();
        let run = evolve(&seed, TracedFitness::new(fit, &tally), &cfg);
        assert_eq!(bare.best, run.best);
        assert_eq!(bare.best_fitness.to_bits(), run.best_fitness.to_bits());
        assert_eq!(bare.evaluations, run.evaluations);
        let mut layers = Layers::default();
        tally.report(&mut layers);
        let evals = layers.n("fitness.infeasible")
            + layers.n("fitness.neutral")
            + layers.n("fitness.feasible");
        assert_eq!(evals, run.evaluations, "every eval is classified exactly once");
        assert!(layers.n("fitness.rebase") >= 1, "the loop rebases onto the initial parent");
    }

    #[test]
    fn nested_spans_are_covered_once() {
        let mut layers = Layers::default();
        layers.span("outer", |l| {
            l.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        assert_eq!(layers.n("outer"), 1);
        assert_eq!(layers.n("inner"), 1);
        assert!(layers.s("outer") >= layers.s("inner"));
        assert_eq!(layers.covered_s, layers.s("outer"), "only the outermost span counts");
        let mut total = Layers::default();
        total.merge(&layers);
        total.merge(&layers);
        assert_eq!(total.n("inner"), 2);
        assert_eq!(total.covered_s, 0.0, "merged task time is the pool's to account");
    }
}
