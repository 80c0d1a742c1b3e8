//! The end-to-end approximation flow (paper §IV / §V-D).

use crate::{run_sweep, CoreError, Eq1Fitness, SweepConfig, SweepDist};
use apx_arith::Operator;
use apx_cgp::{evolve_seeded, Chromosome, EvolutionConfig, FunctionSet};
use apx_dist::Pmf;
use apx_gates::Netlist;
use apx_metrics::{CircuitEvaluator, ErrorStats};
use apx_rng::Xoshiro256;
use apx_techlib::{estimate_under_pmf, CircuitEstimate, TechLibrary, DEFAULT_CLOCK_MHZ};
use std::sync::Arc;

/// Configuration of a circuit-approximation flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// The arithmetic operator being approximated (multiplier by default).
    pub operator: Operator,
    /// Operand width in bits (the paper uses 8).
    pub width: u32,
    /// Two's-complement operands (case study 2) or unsigned (case study 1).
    pub signed: bool,
    /// Target WMED levels `E_i` (fractions, not percent). A level of `0.0`
    /// skips evolution and reports the exact seed — Table I's first row.
    pub thresholds: Vec<f64>,
    /// CGP generations per run (the paper runs ~10^6; scale to taste).
    pub iterations: u64,
    /// Offspring per generation (λ).
    pub lambda: usize,
    /// Max mutated genes per offspring (h).
    pub mutations: usize,
    /// Independent repetitions per threshold (paper: 10–25).
    pub runs_per_threshold: usize,
    /// Spare CGP columns added beyond the seed's gate count.
    pub cols_slack: usize,
    /// Master seed; everything derives deterministically from it.
    pub seed: u64,
    /// Worker threads for the (threshold × run) task grid.
    pub threads: usize,
    /// Stimulus blocks for the power estimate of each result.
    pub activity_blocks: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            operator: Operator::Mul,
            width: 8,
            signed: false,
            thresholds: default_thresholds(),
            iterations: 2_000,
            lambda: 4,
            mutations: 5,
            runs_per_threshold: 1,
            cols_slack: 60,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            activity_blocks: 48,
        }
    }
}

/// The paper's 14 target WMED levels for the Pareto sweeps (Fig. 3),
/// log-spaced over the plotted range 0.0001 % … 20 %.
#[must_use]
pub fn default_thresholds() -> Vec<f64> {
    vec![5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1]
}

/// Table I's WMED levels: `{0, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10} %`.
#[must_use]
pub fn table1_thresholds() -> Vec<f64> {
    vec![0.0, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1]
}

/// One evolved approximate circuit with its full evaluation.
#[derive(Debug, Clone)]
pub struct EvolvedCircuit {
    /// `"t<threshold-index>_r<run>"`, stable across reruns.
    pub name: String,
    /// The genotype (serializable via [`Chromosome::to_text`]).
    pub chromosome: Chromosome,
    /// The active-cone phenotype.
    pub netlist: Netlist,
    /// The WMED budget the run was constrained by.
    pub threshold: f64,
    /// Run index within the threshold.
    pub run: usize,
    /// Exhaustive error statistics under the flow's distribution.
    pub stats: ErrorStats,
    /// Physical estimate under the flow's distribution.
    pub estimate: CircuitEstimate,
    /// Fitness evaluations spent evolving it.
    pub evaluations: u64,
}

/// Result of [`evolve_circuits`].
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Every evolved circuit (`thresholds × runs` entries).
    pub circuits: Vec<EvolvedCircuit>,
    /// The exact seed's physical estimate (the 100 % reference).
    pub seed_estimate: CircuitEstimate,
    /// The exact seed netlist.
    pub seed_netlist: Netlist,
}

impl FlowResult {
    /// The best (lowest-area) circuit per threshold, in threshold order.
    #[must_use]
    pub fn best_per_threshold(&self) -> Vec<&EvolvedCircuit> {
        best_per_threshold(&self.circuits)
    }
}

/// The best (lowest-area) circuit per threshold among `circuits`, in the
/// order thresholds first appear; an area tie keeps the earlier circuit.
pub(crate) fn best_per_threshold<'a>(
    circuits: impl IntoIterator<Item = &'a EvolvedCircuit>,
) -> Vec<&'a EvolvedCircuit> {
    let mut best: Vec<&EvolvedCircuit> = Vec::new();
    for m in circuits {
        match best.iter_mut().find(|b| b.threshold == m.threshold) {
            Some(b) => {
                if m.estimate.area_um2 < b.estimate.area_um2 {
                    *b = m;
                }
            }
            None => best.push(m),
        }
    }
    best
}

/// Validates `cfg` against one distribution's `pmf`; [`crate::run_sweep`]
/// calls it once per distribution.
pub(crate) fn validate_config(pmf: &Pmf, cfg: &FlowConfig) -> Result<(), CoreError> {
    if cfg.thresholds.is_empty() {
        return Err(CoreError::BadConfig("no thresholds given".into()));
    }
    if cfg.iterations == 0 {
        return Err(CoreError::BadConfig("iterations must be positive".into()));
    }
    // The bounded WMED walk reads a NaN budget as no budget at all, and a
    // negative one is missed by every circuit, the exact seed included.
    if let Some(t) = cfg.thresholds.iter().find(|t| t.is_nan() || **t < 0.0) {
        return Err(CoreError::BadConfig(format!(
            "WMED threshold {t} is not a nonnegative number"
        )));
    }
    // The evaluator runs on the backend the operator and width pick —
    // past the exhaustive cap, streamed bit-parallel for multipliers and
    // symbolic for adders and MACs — so any width that backend reaches is
    // valid.
    let backend = cfg.operator.backend(cfg.width);
    if !cfg.operator.supports_width(cfg.width, backend) {
        return Err(CoreError::BadConfig(format!(
            "operand width {} outside the {} operator's evaluable range on the {} backend",
            cfg.width, cfg.operator, backend
        )));
    }
    if pmf.width() != cfg.width {
        return Err(CoreError::BadConfig(format!(
            "pmf width {} does not match operand width {}",
            pmf.width(),
            cfg.width
        )));
    }
    Ok(())
}

/// Builds the exact seed circuit of the flow's operator and its CGP
/// encoding.
pub(crate) fn seed_circuit(cfg: &FlowConfig) -> Result<(Netlist, Chromosome), CoreError> {
    let seed_netlist = cfg.operator.seed_circuit(cfg.width, cfg.signed);
    let funcs = FunctionSet::extended();
    let seed_chrom = Chromosome::from_netlist(
        &seed_netlist,
        &funcs,
        seed_netlist.gate_count() + cfg.cols_slack,
    )?;
    Ok((seed_netlist, seed_chrom))
}

/// One SplitMix64 finalization step (Steele, Lea & Flood's `mix64`):
/// bijective on `u64` with full avalanche, so absorbing each index through
/// it cannot collapse distinct index tuples the way shifted adds did.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decorrelates the per-task RNG streams deterministically: the stream
/// depends only on `(master seed, distribution, threshold, run)`, never on
/// scheduling, so any thread count reproduces the same results bit for
/// bit. The value is also the seed component of the sweep cache key
/// ([`crate::cache::task_key`]), so it must separate *every* distinct
/// index tuple — the former shifted-add packing aliased e.g.
/// `(dist, ti, run) = (1, 0, 0)` with `(0, 2^16, 0)` once a grid grew past
/// 2^16 thresholds, silently reusing one task's RNG stream (and cache
/// entry) for another.
pub(crate) fn task_seed(seed: u64, dist: usize, ti: usize, run: usize) -> u64 {
    let mut s = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    s = splitmix64(s ^ dist as u64);
    s = splitmix64(s ^ ti as u64);
    splitmix64(s ^ run as u64)
}

/// Runs one `(threshold, run)` task: evolve under Eq. 1 (or keep the exact
/// seed at threshold 0), then measure exhaustive error statistics and the
/// physical estimate. The expensive [`CircuitEvaluator`] is shared, not
/// rebuilt per task.
///
/// `seeds` warm-starts the CGP run ([`apx_cgp::evolve_seeded`]): the
/// strictly best of the exact seed and the given candidates becomes the
/// initial parent. The second return value reports which seed won (`None`
/// when the run started from the exact seed — always the case with an
/// empty list, which reproduces the unseeded flow bit for bit).
#[allow(clippy::too_many_arguments)]
pub(crate) fn evolve_one(
    cfg: &FlowConfig,
    pmf: &Pmf,
    tech: &TechLibrary,
    seed_chrom: &Chromosome,
    evaluator: &Arc<CircuitEvaluator>,
    ti: usize,
    run: usize,
    seed: u64,
    name: String,
    seeds: &[Chromosome],
) -> (EvolvedCircuit, Option<usize>) {
    let threshold = cfg.thresholds[ti];
    let (chromosome, evaluations, initial_seed) = if threshold == 0.0 {
        (seed_chrom.clone(), 0, None)
    } else {
        // Passed by value as a `FitnessFn`: the evolution loop rebases its
        // incremental simulation state onto every new parent, so offspring
        // only re-simulate their mutated fanout cones.
        let fitness = Eq1Fitness::with_evaluator(Arc::clone(evaluator), tech.clone(), threshold);
        let result = evolve_seeded(
            seed_chrom,
            seeds,
            fitness,
            &EvolutionConfig {
                lambda: cfg.lambda,
                mutations: cfg.mutations,
                max_iterations: cfg.iterations,
                seed,
                target_fitness: None,
                keep_history: false,
                ..EvolutionConfig::default()
            },
        );
        (result.best, result.evaluations, result.initial_seed)
    };
    let netlist = chromosome.decode_active();
    let stats = evaluator.stats(&netlist);
    let estimate = task_estimate(&netlist, tech, pmf, cfg, seed);
    (
        EvolvedCircuit { name, chromosome, netlist, threshold, run, stats, estimate, evaluations },
        initial_seed,
    )
}

/// The physical estimate of one task's result under `pmf`, on the task's
/// own stimulus stream (`seed ^ 0xE57`, `seed` being its
/// [`task_seed`]): an evolved circuit and a library candidate taken for
/// the same task are estimated on the same stimuli.
pub(crate) fn task_estimate(
    netlist: &Netlist,
    tech: &TechLibrary,
    pmf: &Pmf,
    cfg: &FlowConfig,
    seed: u64,
) -> CircuitEstimate {
    let mut rng = Xoshiro256::from_seed(seed ^ 0xE57);
    estimate_under_pmf(netlist, tech, pmf, DEFAULT_CLOCK_MHZ, cfg.activity_blocks, &mut rng)
}

/// Maps `worker` over `tasks` with [`apx_pool::scope_map`], converting a
/// captured task panic into a [`CoreError::WorkerPanic`] that names the
/// failing task. Names are rendered up front so the task list — which may
/// carry seed chromosomes and netlists in library mode — is moved into
/// the pool, not deep-cloned for the error path.
pub(crate) fn run_tasks<T, R, W, N>(
    threads: usize,
    tasks: Vec<T>,
    name_of: N,
    worker: W,
) -> Result<Vec<R>, CoreError>
where
    T: Send,
    R: Send,
    W: Fn(usize, T) -> R + Sync,
    N: Fn(&T) -> String,
{
    let names: Vec<String> = tasks.iter().map(&name_of).collect();
    apx_pool::scope_map(threads, tasks, worker)
        .map_err(|p| CoreError::WorkerPanic { task: names[p.index].clone(), message: p.message })
}

/// Runs the complete flow: for every threshold `E_i` and every run, evolve
/// a circuit of the configured operator minimizing area under
/// `WMED_D ≤ E_i` (Eq. 1), then measure
/// its exhaustive error statistics and physical cost under `pmf`.
///
/// This is a one-distribution [`crate::run_sweep`] without cache or
/// library, so results are fully deterministic in `cfg.seed` regardless
/// of thread count. Circuits are named `t<threshold index>_r<run>`.
///
/// # Errors
///
/// Returns [`CoreError`] on invalid configuration (zero width, empty
/// thresholds, PMF/width mismatch, …) and [`CoreError::WorkerPanic`] if a
/// task panicked.
pub fn evolve_circuits(pmf: &Pmf, cfg: &FlowConfig) -> Result<FlowResult, CoreError> {
    let sweep = run_sweep(&SweepConfig {
        distributions: vec![SweepDist::new("", pmf.clone())],
        flow: cfg.clone(),
        ..SweepConfig::default()
    })?;
    let circuits = sweep
        .entries
        .into_iter()
        .map(|e| {
            // The unnamed distribution leaves the sweep's
            // `<dist>_t<ti>_r<run>` names as `_t<ti>_r<run>`.
            let mut m = e.circuit;
            m.name.remove(0);
            m
        })
        .collect();
    Ok(FlowResult {
        circuits,
        seed_estimate: sweep.seed_estimates[0],
        seed_netlist: sweep.seed_netlist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> FlowConfig {
        FlowConfig {
            width: 4,
            thresholds: vec![0.0, 0.02],
            iterations: 400,
            runs_per_threshold: 2,
            cols_slack: 20,
            threads: 2,
            activity_blocks: 8,
            ..Default::default()
        }
    }

    #[test]
    fn flow_produces_constrained_smaller_circuits() {
        let pmf = Pmf::half_normal(4, 3.0);
        let result = evolve_circuits(&pmf, &tiny_cfg()).unwrap();
        let names: Vec<&str> = result.circuits.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["t0_r0", "t0_r1", "t1_r0", "t1_r1"]);
        let seed_area = result.seed_estimate.area_um2;
        for m in &result.circuits {
            assert!(
                m.stats.wmed <= m.threshold + 1e-12,
                "{}: wmed {} over budget {}",
                m.name,
                m.stats.wmed,
                m.threshold
            );
            assert!(m.estimate.area_um2 <= seed_area + 1e-9, "{} grew", m.name);
        }
        // The relaxed-budget runs must actually shrink the circuit.
        let relaxed: Vec<_> = result.circuits.iter().filter(|m| m.threshold > 0.0).collect();
        assert!(
            relaxed.iter().any(|m| m.estimate.area_um2 < seed_area * 0.9),
            "400 iterations should shave >10% area at WMED 2%"
        );
    }

    #[test]
    fn flow_is_deterministic_across_thread_counts() {
        let pmf = Pmf::uniform(4);
        let mut cfg = tiny_cfg();
        cfg.thresholds = vec![0.01, 0.05];
        cfg.runs_per_threshold = 2;
        cfg.iterations = 150;
        cfg.threads = 4;
        let a = evolve_circuits(&pmf, &cfg).unwrap();
        cfg.threads = 1;
        let b = evolve_circuits(&pmf, &cfg).unwrap();
        assert_eq!(a.circuits.len(), b.circuits.len());
        // Bit-for-bit: chromosomes, exhaustive statistics and physical
        // estimates must not depend on the thread count.
        for (x, y) in a.circuits.iter().zip(&b.circuits) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.chromosome, y.chromosome, "{} differs", x.name);
            assert_eq!(x.stats, y.stats, "{} stats differ", x.name);
            assert_eq!(x.estimate, y.estimate, "{} estimate differs", x.name);
            assert_eq!(x.evaluations, y.evaluations);
        }
        assert_eq!(a.seed_estimate, b.seed_estimate);
    }

    #[test]
    fn panicking_worker_surfaces_the_task_name() {
        // Regression: the old scheme wrapped the whole result vector in
        // one Mutex, so a panicking task poisoned it and the caller saw
        // "no poisoned worker" instead of the real error.
        let tasks = vec![(0usize, 0usize), (0, 1), (1, 0), (1, 1)];
        let err = run_tasks(
            2,
            tasks,
            |(ti, run)| format!("t{ti}_r{run}"),
            |_, (ti, run)| {
                assert!(!(ti == 1 && run == 0), "fitness blew up");
                ti + run
            },
        )
        .unwrap_err();
        match err {
            CoreError::WorkerPanic { task, message } => {
                assert_eq!(task, "t1_r0", "the surfaced error names the failing task");
                assert!(message.contains("fitness blew up"), "message was: {message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn signed_flow_uses_baugh_wooley_seed() {
        let pmf = Pmf::signed_normal(4, 0.0, 3.0);
        let cfg = FlowConfig {
            width: 4,
            signed: true,
            thresholds: vec![0.0],
            iterations: 10,
            threads: 1,
            activity_blocks: 4,
            ..Default::default()
        };
        let result = evolve_circuits(&pmf, &cfg).unwrap();
        // Threshold 0 keeps the exact seed: zero error.
        assert_eq!(result.circuits[0].stats.max_abs_error, 0);
        assert_eq!(result.circuits[0].evaluations, 0);
    }

    #[test]
    fn best_per_threshold_selects_minimum_area() {
        let pmf = Pmf::uniform(4);
        let result = evolve_circuits(&pmf, &tiny_cfg()).unwrap();
        let best = result.best_per_threshold();
        assert_eq!(best.len(), 2);
        for b in best {
            for m in result.circuits.iter().filter(|m| m.threshold == b.threshold) {
                assert!(b.estimate.area_um2 <= m.estimate.area_um2);
            }
        }
    }

    #[test]
    fn task_seed_never_aliases_distinct_tasks() {
        // Regression: the former shifted-add packing computed
        // `seed·φ + (dist << 48) + (ti << 32) + run + 1`, so a threshold
        // index ≥ 2^16 carried straight into the distribution bits and
        // two different tasks shared one RNG stream. The exact old
        // aliasing pair must now map to different seeds …
        assert_ne!(task_seed(0, 1, 0, 0), task_seed(0, 0, 1 << 16, 0));
        assert_ne!(task_seed(7, 2, 0, 5), task_seed(7, 0, 2 << 16, 4));
        // … and a large index grid must stay collision-free (the grid
        // deliberately crosses both overflow boundaries of the old
        // packing: ti near 2^16·k and run near 2^32).
        let mut seen = std::collections::HashMap::new();
        for seed in [0u64, 0xF163, u64::MAX] {
            for dist in [0usize, 1, 2, 3, 31] {
                for ti in (0..48).chain([1 << 16, (1 << 16) + 1, 1 << 20, 1 << 17]) {
                    for run in [0usize, 1, 2, 3, 4, 5, 6, 7, 1 << 16, 1 << 20] {
                        let s = task_seed(seed, dist, ti, run);
                        if let Some(prev) = seen.insert(s, (seed, dist, ti, run)) {
                            panic!("seed collision: {prev:?} vs {:?}", (seed, dist, ti, run));
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), 3 * 5 * 52 * 10);
    }

    #[test]
    fn validation_accepts_every_width_some_backend_reaches() {
        // Past the exhaustive cap the operator and width pick a per-row
        // backend (streamed bitpar for a 12-bit multiplier, symbolic for an
        // 8-bit MAC); nothing else needs configuring.
        let wide = FlowConfig { width: 12, ..Default::default() };
        assert!(validate_config(&Pmf::uniform(12), &wide).is_ok());
        let mac = FlowConfig { operator: Operator::Mac, width: 8, ..Default::default() };
        assert!(validate_config(&Pmf::uniform(8), &mac).is_ok());
        let too_wide = FlowConfig { operator: Operator::Mac, width: 9, ..Default::default() };
        let err = validate_config(&Pmf::uniform(9), &too_wide).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(ref m) if m.contains("symbolic")), "{err}");
    }

    #[test]
    fn validation_rejects_nan_and_negative_thresholds() {
        let pmf = Pmf::uniform(8);
        for bad in [f64::NAN, -1.0, -1e-9, f64::NEG_INFINITY] {
            let cfg = FlowConfig { thresholds: vec![1e-3, bad], ..Default::default() };
            let err = validate_config(&pmf, &cfg).unwrap_err();
            let named = bad.to_string();
            assert!(matches!(err, CoreError::BadConfig(ref m) if m.contains(&named)), "{err}");
        }
        // Zero of either sign is the exact seed's level, and +∞ no budget.
        for good in [0.0, -0.0, 1e-3, f64::INFINITY] {
            let cfg = FlowConfig { thresholds: vec![good], ..Default::default() };
            assert!(validate_config(&pmf, &cfg).is_ok(), "{good}");
        }
    }

    #[test]
    fn config_errors_are_reported() {
        let pmf = Pmf::uniform(8);
        let empty = FlowConfig { thresholds: vec![], ..Default::default() };
        assert!(matches!(evolve_circuits(&pmf, &empty), Err(CoreError::BadConfig(_))));
        let mismatch = FlowConfig { width: 4, ..Default::default() };
        assert!(matches!(evolve_circuits(&pmf, &mismatch), Err(CoreError::BadConfig(_))));
        let zero_iters = FlowConfig { iterations: 0, ..Default::default() };
        assert!(evolve_circuits(&Pmf::uniform(8), &zero_iters).is_err());
    }
}
