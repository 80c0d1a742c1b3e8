//! The Pareto sweep driver: one worker pool for the full
//! `(distribution × threshold × run)` grid.
//!
//! Every figure of the paper is some slice of this grid — Fig. 3 alone is
//! 3 distributions × 14 WMED targets × `runs` independent CGP runs, and
//! the single-distribution flow ([`evolve_circuits`](crate::evolve_circuits))
//! is a one-distribution sweep. [`run_sweep`]:
//!
//! * builds each [`CircuitEvaluator`] **once** per `(width, signed, pmf)` and
//!   shares it across every threshold and run of that distribution via
//!   [`Arc`] (both for the Eq. 1 fitness and the post-hoc statistics);
//! * flattens the whole grid into one task list served by a single
//!   [`apx_pool::scope_map`], so threads stay busy across distribution
//!   boundaries instead of draining at each one;
//! * records throughput and how each task was resolved ([`SweepStats`]:
//!   wall time, fitness evaluations per second, thread count, cache and
//!   library counters), which the figure binaries print after each sweep.
//!
//! Results are deterministic in the master seed regardless of thread
//! count: per-task RNG streams derive from `(seed, distribution,
//! threshold, run)`, never from scheduling.

use crate::cache::{task_key, CacheKey, SweepCache};
use crate::flow::{
    best_per_threshold, evolve_one, run_tasks, seed_circuit, task_estimate, task_seed,
    validate_config, EvolvedCircuit, FlowConfig,
};
use crate::library::{ComponentLibrary, RescoredLibrary};
use crate::CoreError;
use apx_approxlib::MultiplierLibrary;
use apx_arith::Operator;
use apx_cgp::Chromosome;
use apx_dist::Pmf;
use apx_gates::Netlist;
use apx_metrics::{CircuitEvaluator, ErrorStats};
use apx_rng::Xoshiro256;
use apx_techlib::{area_of, estimate_under_pmf, CircuitEstimate, TechLibrary, DEFAULT_CLOCK_MHZ};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One named input distribution of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDist {
    /// Display name (`"D1"`, `"D2"`, `"Du"`, a measured-source tag, …).
    pub name: String,
    /// The distribution itself.
    pub pmf: Pmf,
}

impl SweepDist {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: impl Into<String>, pmf: Pmf) -> Self {
        SweepDist { name: name.into(), pmf }
    }
}

/// One shard of a sweep grid: this process computes every task whose
/// index in the flat deterministic task list satisfies
/// `index % count == shard.index`.
///
/// The task list is flattened in `(distribution, threshold, run)` order
/// and is identical for every participant, so `n` processes (or machines)
/// each running one shard of `n` against a shared
/// [`cache_dir`](SweepConfig::cache_dir) together cover the grid exactly
/// once. Striding — rather than contiguous ranges — spreads the expensive
/// high-threshold tasks evenly across shards. A final unsharded run then
/// assembles the full result from cache hits alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shard {
    /// This process's shard, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the grid is split into.
    pub count: usize,
}

/// Component-library mode of a sweep ([`crate::library`]): how
/// [`run_sweep`] may reuse circuits built by *other* explorations.
///
/// An empty library (no directory, nothing scanned, no conventional
/// entries) is a guaranteed no-op: results are bit-identical to running
/// with `SweepConfig::library = None`.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryConfig {
    /// Cache directory to harvest candidates from (usually a previous
    /// run's [`SweepConfig::cache_dir`], possibly populated under
    /// different distributions). `None` scans nothing.
    pub dir: Option<PathBuf>,
    /// Also ingest the conventional designs for the sweep's operator as
    /// candidates: the [`apx_approxlib`] multipliers (truncated,
    /// broken-array, zero-guarded) for `Mul`, the approximate adders of
    /// `apx_arith::adders_approx` (lower-OR, truncated) for unsigned
    /// `Add`. Operators without a conventional family (MACs, signed
    /// adders) ingest nothing.
    pub conventional: bool,
    /// Take a re-scored candidate directly when it already meets the
    /// task's threshold (counted as `library_hits`). With `false` the
    /// library only warm-starts evolutions — the refinement mode where
    /// feasible candidates become initial CGP parents and are improved
    /// further (counted as `seeded_evolutions` when a seed wins).
    pub take_hits: bool,
    /// Maximum library candidates offered as seeds to one evolution.
    pub max_seeds: usize,
    /// Retired and inert: [`run_sweep`] re-scores every candidate
    /// ([`ComponentLibrary::rescore`]) whatever this says. The field is
    /// kept only because the repository benchmark (`perfbench/`) still
    /// reads it, and goes when the benchmark does. `ARCHITECTURE.md`
    /// ("Performance, honestly") gives the measurements that retired
    /// bound pruning.
    pub prune: bool,
    /// Collapse semantically equivalent candidates after the structural
    /// dedup ([`ComponentLibrary::dedup_semantic`]): entries shown by
    /// `apx_verify`'s class rule to compute the same function are reduced
    /// to the selection-preferred member, counted as
    /// `library_semantic_dups`. The rule separates entries by a
    /// simulation signature on a few tiles of input vectors, and only
    /// entries whose signatures collide get an exact key: a hash of the
    /// simulated output table at exhaustively enumerable widths, the
    /// canonical functional digest past the cap.
    /// Direct hits are provably unchanged (equivalent candidates
    /// re-score identically); only redundant seed slots are freed for
    /// functionally distinct candidates.
    pub semantic_dedup: bool,
}

impl Default for LibraryConfig {
    /// Hits taken, up to 4 seeds (one per default-λ offspring lineage),
    /// semantic dedup on, no directory, no conventional entries. The
    /// inert `prune` is `false`, which is what [`run_sweep`] does.
    fn default() -> Self {
        LibraryConfig {
            dir: None,
            conventional: false,
            take_hits: true,
            max_seeds: 4,
            prune: false,
            semantic_dedup: true,
        }
    }
}

/// Configuration of a full Pareto sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepConfig {
    /// The distributions to sweep (each gets one shared evaluator).
    pub distributions: Vec<SweepDist>,
    /// Everything else — thresholds, CGP knobs, seed, thread count —
    /// shared with the single-distribution flow.
    pub flow: FlowConfig,
    /// Content-addressed result cache directory ([`crate::cache`]):
    /// completed tasks are stored there as they finish and matching tasks
    /// are loaded instead of recomputed. `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Restrict this run to one shard of the task grid. `None` runs every
    /// task.
    pub shard: Option<Shard>,
    /// Component-library mode ([`crate::library`]): reuse circuits
    /// evolved by previous (differently-distributed) explorations, either
    /// directly or as CGP population seeds. `None` disables the library.
    pub library: Option<LibraryConfig>,
}

/// One completed `(distribution, threshold, run)` task.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// Name of the distribution the circuit was evolved under.
    pub dist: String,
    /// Index of that distribution in [`SweepConfig::distributions`].
    pub dist_index: usize,
    /// The evolved circuit with its full evaluation.
    pub circuit: EvolvedCircuit,
}

/// Throughput of a sweep and how its tasks were resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Wall-clock time of the task grid, in seconds.
    pub wall_seconds: f64,
    /// Total fitness evaluations represented by the returned entries
    /// (including evaluations a previous run spent on now-cached tasks).
    pub total_evaluations: u64,
    /// Fitness evaluations actually spent by *this* run (cache misses
    /// only) — zero for a fully warm run.
    pub computed_evaluations: u64,
    /// [`SweepStats::rate`] of `computed_evaluations` over
    /// `wall_seconds`: the throughput of the work this run performed. A
    /// warm all-hits run honestly reports `0.0` instead of dividing
    /// replayed evaluations by a near-zero wall clock.
    pub evaluations_per_second: f64,
    /// Worker threads the pool ran with.
    pub threads: usize,
    /// Number of `(distribution × threshold × run)` tasks in the *full*
    /// grid: `cache_hits + library_hits + cache_misses + shard_skipped`.
    pub tasks: usize,
    /// Tasks loaded from the result cache instead of evolved.
    pub cache_hits: usize,
    /// Tasks evolved by this run (every executed task counts as a miss
    /// when caching is disabled).
    pub cache_misses: usize,
    /// Tasks excluded by the [`Shard`] filter (computed by other shards).
    pub shard_skipped: usize,
    /// Tasks satisfied by the component library instead of evolved —
    /// either an exact stored-task replay or a re-scored candidate that
    /// already met the task's threshold ([`LibraryConfig::take_hits`]).
    pub library_hits: usize,
    /// Evolved tasks whose initial CGP parent came from the library (a
    /// seed strictly beat the operator's exact seed circuit in the
    /// warm-start selection of [`apx_cgp::evolve_seeded`]).
    pub seeded_evolutions: usize,
    /// Retired and always 0: no library candidate is skipped before
    /// re-scoring any more. Kept only because the repository benchmark
    /// (`perfbench/`) still builds and prints it, like
    /// [`LibraryConfig::prune`].
    pub library_pruned: usize,
    /// Library candidates removed as semantic duplicates — structurally
    /// distinct netlists proven to compute an already-present function
    /// ([`LibraryConfig::semantic_dedup`]).
    pub library_semantic_dups: usize,
}

impl SweepStats {
    /// Evaluations per second with a clamped denominator, so the rate is
    /// finite for every input — a warm all-hits or otherwise near-instant
    /// run must serialize as a JSON number, never as `inf` (which is not
    /// valid JSON and once corrupted a perf record on a tiny grid).
    #[must_use]
    pub fn rate(total_evaluations: u64, wall_seconds: f64) -> f64 {
        total_evaluations as f64 / wall_seconds.max(1e-9)
    }
}

/// Result of [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Every completed task, ordered by `(distribution, threshold, run)`
    /// — restricted to the configured [`Shard`] when one is set.
    pub entries: Vec<SweepEntry>,
    /// The shared evaluators, one per distribution in configuration
    /// order — reuse them for cross-distribution evaluation (the
    /// off-diagonal panels of Fig. 3) instead of rebuilding.
    pub evaluators: Vec<Arc<CircuitEvaluator>>,
    /// The exact seed's physical estimate under each distribution.
    pub seed_estimates: Vec<CircuitEstimate>,
    /// The exact seed netlist (the 100 % reference).
    pub seed_netlist: Netlist,
    /// Throughput of this sweep.
    pub stats: SweepStats,
}

impl SweepResult {
    /// The entries evolved under distribution `dist_index`, in
    /// `(threshold, run)` order.
    pub fn entries_for(&self, dist_index: usize) -> impl Iterator<Item = &SweepEntry> {
        self.entries.iter().filter(move |e| e.dist_index == dist_index)
    }

    /// The best (lowest-area) circuit per threshold for one
    /// distribution, in threshold order.
    #[must_use]
    pub fn best_per_threshold(&self, dist_index: usize) -> Vec<&EvolvedCircuit> {
        best_per_threshold(self.entries_for(dist_index).map(|e| &e.circuit))
    }
}

/// Runs the full `(distribution × threshold × run)` grid as one
/// [`apx_pool::scope_map`] batch.
///
/// Each `CircuitEvaluator` is built once per distribution and shared (via
/// [`Arc`]) by the Eq. 1 fitness of every task and by the post-hoc
/// statistics pass. Task names are `"<dist>_t<threshold>_r<run>"`.
///
/// With a [`cache_dir`](SweepConfig::cache_dir), already-completed tasks
/// are loaded from the content-addressed cache ([`crate::cache`]) and
/// every freshly evolved task is persisted the moment it finishes — an
/// interrupted sweep restarted later recomputes only the missing tail,
/// and the loaded entries are bit-identical to what the evolution would
/// have produced. With a [`shard`](SweepConfig::shard), only that shard's
/// slice of the grid is computed (and returned).
///
/// With a [`library`](SweepConfig::library), candidates harvested from
/// previous explorations are consulted before any CGP time is spent: a
/// task whose content-addressed key matches a harvested entry replays it
/// bit for bit; otherwise the candidates are re-scored under the task's
/// distribution and the cheapest one meeting the threshold — if strictly
/// cheaper than the exact seed, which trivially meets everything — is
/// taken directly (`library_hits`); otherwise the best candidates seed the
/// evolution's initial parent (`seeded_evolutions` counts the tasks where
/// a seed won). Library-derived results are **not** written back to the
/// exact-task cache: the cache's contract is "what this task's evolution
/// computes", and a hit or seeded run computes something else.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] for an empty distribution list, a
/// PMF/width mismatch, empty thresholds, a NaN or negative threshold,
/// zero iterations or an invalid shard, and [`CoreError::WorkerPanic`] if
/// a task panicked.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepResult, CoreError> {
    if cfg.distributions.is_empty() {
        return Err(CoreError::BadConfig("no distributions given".into()));
    }
    for d in &cfg.distributions {
        validate_config(&d.pmf, &cfg.flow)?;
    }
    if let Some(s) = cfg.shard {
        if s.count == 0 || s.index >= s.count {
            return Err(CoreError::BadConfig(format!(
                "shard index {} of {} is not a valid `index < count` split",
                s.index, s.count
            )));
        }
    }
    let flow = &cfg.flow;
    let tech = TechLibrary::nangate45();
    let (seed_netlist, seed_chrom) = seed_circuit(flow)?;
    let evaluators: Vec<Arc<CircuitEvaluator>> = cfg
        .distributions
        .iter()
        .map(|d| {
            CircuitEvaluator::for_operator(flow.operator, flow.width, flow.signed, &d.pmf)
                .map(Arc::new)
        })
        .collect::<Result<_, _>>()?;

    let grid = flat_grid(cfg);
    let n_tasks = grid.len();
    let tasks: Vec<(usize, usize, usize)> = match cfg.shard {
        Some(s) => grid.iter().copied().skip(s.index).step_by(s.count).collect(),
        None => grid,
    };
    let shard_skipped = n_tasks - tasks.len();
    let threads = flow.threads.max(1);
    let name_of = |(di, ti, run): (usize, usize, usize)| {
        format!("{}_t{ti}_r{run}", cfg.distributions[di].name)
    };

    let started = Instant::now();
    let cache = cfg.cache_dir.as_ref().map(SweepCache::new);

    // Build the component library once, then re-price its candidates under
    // every distribution of this sweep (one batched statistics pass per
    // distribution on the same worker width the grid will use).
    let library: Option<ComponentLibrary> = cfg.library.as_ref().map(|lc| {
        let mut lib = ComponentLibrary::new();
        if let Some(dir) = &lc.dir {
            lib.scan_cache(dir);
        }
        if lc.conventional {
            match flow.operator {
                Operator::Mul if flow.width >= 3 => {
                    if flow.signed {
                        lib.ingest_conventional(&MultiplierLibrary::broken_family_signed(
                            flow.width,
                        ));
                        lib.ingest_conventional(&MultiplierLibrary::zero_guard_family_signed(
                            flow.width,
                        ));
                    } else {
                        lib.ingest_conventional(&MultiplierLibrary::evoapprox_like(flow.width));
                    }
                }
                Operator::Add if !flow.signed => {
                    lib.ingest_conventional_adders(flow.width);
                }
                // No conventional family exists for the remaining
                // operator/encoding combinations.
                _ => {}
            }
        }
        if lc.semantic_dedup {
            lib.dedup_semantic(&tech);
        }
        lib
    });
    let library_semantic_dups = library.as_ref().map_or(0, ComponentLibrary::semantic_dups);
    // Re-scoring is lazy per distribution: an all-replay warm run (every
    // task an exact key match) never pays the batched evaluator passes
    // for rankings nobody consults.
    let rescored: Vec<std::cell::OnceCell<RescoredLibrary<'_>>> =
        cfg.distributions.iter().map(|_| std::cell::OnceCell::new()).collect();
    let rescored_for = |di: usize| -> Option<&RescoredLibrary<'_>> {
        match &library {
            Some(lib) if !lib.is_empty() => {
                Some(rescored[di].get_or_init(|| lib.rescore(&evaluators[di], &tech, threads)))
            }
            _ => None,
        }
    };
    // The Eq. 1 cost of the trivial feasible solution (the exact seed):
    // the bar a library hit has to clear.
    let seed_area = area_of(&seed_chrom.decode_active(), &tech);

    /// How a task that was not replayed from the cache gets its result.
    enum Work {
        /// Run CGP, warm-started by the given library seeds (empty when
        /// the library has nothing to offer — bit-identical to no
        /// library at all).
        Evolve(Vec<Chromosome>),
        /// A re-scored library candidate already meets the threshold:
        /// finish it (physical estimate under this task's stimulus
        /// stream) without any evolution.
        TakeCandidate { chromosome: Chromosome, netlist: Netlist, stats: ErrorStats },
    }

    /// A task for the pool: its slot in the entry list, its grid
    /// coordinates, the key to checkpoint it under (when caching), and
    /// how to compute it.
    type Pending = (usize, (usize, usize, usize), Option<CacheKey>, Work);

    // Resolve cache hits and library replays up front (cheap
    // deserialization, no point going through the pool), leaving only the
    // tasks that truly need simulation or CGP time.
    let mut slots: Vec<Option<EvolvedCircuit>> = Vec::with_capacity(tasks.len());
    let mut to_compute: Vec<Pending> = Vec::new();
    let mut cache_hits = 0usize;
    let mut library_hits = 0usize;
    for (pos, &(di, ti, run)) in tasks.iter().enumerate() {
        let key = (cache.is_some() || library.is_some()).then(|| {
            task_key(
                flow,
                &cfg.distributions[di].pmf,
                flow.thresholds[ti],
                run,
                task_seed(flow.seed, di, ti, run),
            )
        });
        let mut hit =
            cache.as_ref().and_then(|c| key.and_then(|k| c.load(k))).inspect(|_| cache_hits += 1);
        if hit.is_none() && cfg.library.as_ref().is_some_and(|l| l.take_hits) {
            // The library may have harvested this exact task (content-
            // addressed key match) from another run's cache directory:
            // replaying it is bit-identical to a cache hit. Seed-only
            // mode skips this too — its contract is to *refine* every
            // task, and the harvested entry will come back anyway as the
            // warm-start seed to beat.
            hit = library
                .as_ref()
                .and_then(|lib| {
                    key.and_then(|k| lib.exact_match(k, flow.operator, flow.width, flow.signed))
                        .cloned()
                })
                .inspect(|m| {
                    library_hits += 1;
                    // Unlike re-scored hits, an exact replay *is* what
                    // this task's evolution computes (that is what the
                    // key addresses), so checkpointing it into our own
                    // cache is contract-safe — and keeps the result if
                    // the donor directory is later GC'd or lost.
                    if let (Some(c), Some(k)) = (&cache, key) {
                        let _ = c.store(k, m, flow.operator, flow.width, flow.signed);
                    }
                });
        }
        slots.push(hit.map(|mut m| {
            m.name = name_of((di, ti, run));
            m
        }));
        if slots[pos].is_some() {
            continue;
        }
        let lc = cfg.library.as_ref();
        let work = match rescored_for(di) {
            Some(r) if lc.is_some_and(|l| l.take_hits) => {
                // A hit must beat the trivial feasible answer: the exact
                // seed circuit meets *every* threshold, so a candidate
                // that is not strictly cheaper than the seed saves
                // nothing and would only suppress a potentially better
                // evolution.
                match r.best_meeting(flow.thresholds[ti]) {
                    Some(c) if c.area < seed_area => {
                        library_hits += 1;
                        Work::TakeCandidate {
                            chromosome: c.entry.chromosome.clone(),
                            netlist: c.entry.netlist.clone(),
                            stats: c.stats,
                        }
                    }
                    _ => Work::Evolve(task_seeds(r, flow, ti, lc)),
                }
            }
            Some(r) => Work::Evolve(task_seeds(r, flow, ti, lc)),
            None => Work::Evolve(Vec::new()),
        };
        to_compute.push((pos, (di, ti, run), key, work));
    }
    let cache_misses =
        to_compute.iter().filter(|(_, _, _, w)| matches!(w, Work::Evolve(_))).count();

    // Each evolved task is persisted by its worker the moment it
    // completes, so an interrupted run checkpoints everything already
    // finished. Library-derived results are never stored under the exact
    // task key (they are not what the task's evolution would compute).
    let computed = run_tasks(
        threads,
        to_compute,
        |(_, t, _, _)| name_of(*t),
        |_, (pos, (di, ti, run), key, work)| {
            let seed = task_seed(flow.seed, di, ti, run);
            match work {
                Work::Evolve(seeds) => {
                    let (m, initial_seed) = evolve_one(
                        flow,
                        &cfg.distributions[di].pmf,
                        &tech,
                        &seed_chrom,
                        &evaluators[di],
                        ti,
                        run,
                        seed,
                        name_of((di, ti, run)),
                        &seeds,
                    );
                    if initial_seed.is_none() {
                        if let (Some(c), Some(k)) = (&cache, key) {
                            // When every seed lost, the search trajectory
                            // is exactly the unseeded one and only the
                            // warm-start fitness calls inflate the
                            // counter — checkpoint the entry as a plain
                            // evolution would have computed it, keeping
                            // the cache key → content contract intact.
                            // (A failed store — read-only dir, full disk
                            // — only costs a future recompute; the
                            // in-memory result stands.)
                            let mut plain = m.clone();
                            plain.evaluations -= seeds.len() as u64;
                            let _ = c.store(k, &plain, flow.operator, flow.width, flow.signed);
                        }
                    }
                    (pos, m, initial_seed.is_some())
                }
                Work::TakeCandidate { chromosome, netlist, stats } => {
                    let estimate =
                        task_estimate(&netlist, &tech, &cfg.distributions[di].pmf, flow, seed);
                    let m = EvolvedCircuit {
                        name: name_of((di, ti, run)),
                        chromosome,
                        netlist,
                        threshold: flow.thresholds[ti],
                        run,
                        stats,
                        estimate,
                        evaluations: 0,
                    };
                    (pos, m, false)
                }
            }
        },
    )?;
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut computed_evaluations = 0u64;
    let mut seeded_evolutions = 0usize;
    for (pos, m, seeded) in computed {
        computed_evaluations += m.evaluations;
        seeded_evolutions += usize::from(seeded);
        slots[pos] = Some(m);
    }
    let entries: Vec<SweepEntry> = slots
        .into_iter()
        .zip(&tasks)
        .map(|(m, &(di, _, _))| SweepEntry {
            dist: cfg.distributions[di].name.clone(),
            dist_index: di,
            circuit: m.expect("every task is either cached or computed"),
        })
        .collect();
    let total_evaluations: u64 = entries.iter().map(|e| e.circuit.evaluations).sum();

    let compact_seed = seed_netlist.compact();
    let seed_estimates: Vec<CircuitEstimate> = cfg
        .distributions
        .iter()
        .enumerate()
        .map(|(di, d)| {
            // One estimate stream per distribution; distribution 0's is
            // `seed ^ 0x5EED` itself.
            let mut est_rng =
                Xoshiro256::from_seed((flow.seed ^ 0x5EED).wrapping_add((di as u64) << 48));
            estimate_under_pmf(
                &compact_seed,
                &tech,
                &d.pmf,
                DEFAULT_CLOCK_MHZ,
                flow.activity_blocks,
                &mut est_rng,
            )
        })
        .collect();

    Ok(SweepResult {
        entries,
        evaluators,
        seed_estimates,
        seed_netlist,
        stats: SweepStats {
            wall_seconds,
            total_evaluations,
            computed_evaluations,
            evaluations_per_second: SweepStats::rate(computed_evaluations, wall_seconds),
            threads,
            tasks: n_tasks,
            cache_hits,
            cache_misses,
            shard_skipped,
            library_hits,
            seeded_evolutions,
            library_pruned: 0,
            library_semantic_dups,
        },
    })
}

/// Flattens `cfg`'s full `(distribution, threshold, run)` grid in the
/// deterministic order every sweep participant shares — the order task
/// indices (and therefore [`Shard`] strides) are defined over.
fn flat_grid(cfg: &SweepConfig) -> Vec<(usize, usize, usize)> {
    (0..cfg.distributions.len())
        .flat_map(|di| {
            cfg.flow
                .thresholds
                .iter()
                .enumerate()
                .flat_map(move |(ti, _)| (0..cfg.flow.runs_per_threshold).map(move |r| (di, ti, r)))
        })
        .collect()
}

/// The content-addressed cache keys of every task of `cfg`'s **full**
/// grid (any [`Shard`] restriction is ignored — the keys describe what
/// the whole exploration serves), in flat grid order.
///
/// This is the "live set" a garbage collection pass
/// ([`crate::cache::gc_cache_dir`]) must never evict: exactly the keys a
/// warm or resumed run of `cfg` will ask the cache for.
#[must_use]
pub fn grid_keys(cfg: &SweepConfig) -> Vec<CacheKey> {
    flat_grid(cfg)
        .into_iter()
        .map(|(di, ti, run)| {
            task_key(
                &cfg.flow,
                &cfg.distributions[di].pmf,
                cfg.flow.thresholds[ti],
                run,
                task_seed(cfg.flow.seed, di, ti, run),
            )
        })
        .collect()
}

/// The chromosomes a task's evolution is warm-started with: the library's
/// deterministic seed ranking for this threshold, capped by the
/// configured [`LibraryConfig::max_seeds`]. Threshold-0 tasks get none —
/// they keep the exact seed without running CGP, so offered seeds would
/// never even be evaluated.
fn task_seeds(
    rescored: &RescoredLibrary<'_>,
    flow: &FlowConfig,
    ti: usize,
    lc: Option<&LibraryConfig>,
) -> Vec<Chromosome> {
    let threshold = flow.thresholds[ti];
    if threshold == 0.0 {
        return Vec::new();
    }
    let max = lc.map_or(0, |l| l.max_seeds);
    rescored.seeds(threshold, max).into_iter().map(|c| c.entry.chromosome.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepConfig {
        SweepConfig {
            distributions: vec![
                SweepDist::new("Dh", Pmf::half_normal(4, 3.0)),
                SweepDist::new("Du", Pmf::uniform(4)),
            ],
            flow: FlowConfig {
                width: 4,
                thresholds: vec![0.0, 0.02],
                iterations: 200,
                runs_per_threshold: 2,
                cols_slack: 20,
                threads: 2,
                activity_blocks: 8,
                ..FlowConfig::default()
            },
            ..SweepConfig::default()
        }
    }

    /// Per-test unique cache directory, cleaned before use.
    fn fresh_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("apx_sweep_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_entries_bit_identical(a: &SweepResult, b: &SweepResult) {
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.dist, y.dist);
            assert_eq!(x.dist_index, y.dist_index);
            let (mx, my) = (&x.circuit, &y.circuit);
            assert_eq!(mx.name, my.name);
            assert_eq!(mx.chromosome, my.chromosome, "{} differs", mx.name);
            assert_eq!(mx.threshold.to_bits(), my.threshold.to_bits());
            assert_eq!(mx.run, my.run);
            // Bit patterns, not `==`: past the cap `mred` is `NaN`.
            let bits =
                |s: &ErrorStats| [s.med, s.wmed, s.wce, s.error_rate, s.mred].map(f64::to_bits);
            assert_eq!(bits(&mx.stats), bits(&my.stats), "{} stats differ", mx.name);
            assert_eq!(mx.stats.max_abs_error, my.stats.max_abs_error, "{}", mx.name);
            assert_eq!(mx.estimate, my.estimate, "{} estimate differs", mx.name);
            assert_eq!(mx.evaluations, my.evaluations);
        }
    }

    #[test]
    fn sweep_covers_the_full_grid_in_order() {
        let result = run_sweep(&tiny_sweep()).unwrap();
        assert_eq!(result.entries.len(), 2 * 2 * 2);
        assert_eq!(result.stats.tasks, 8);
        assert_eq!(result.evaluators.len(), 2);
        assert_eq!(result.seed_estimates.len(), 2);
        let names: Vec<&str> = result.entries.iter().map(|e| e.circuit.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "Dh_t0_r0", "Dh_t0_r1", "Dh_t1_r0", "Dh_t1_r1", "Du_t0_r0", "Du_t0_r1", "Du_t1_r0",
                "Du_t1_r1"
            ]
        );
        for e in &result.entries {
            assert!(e.circuit.stats.wmed <= e.circuit.threshold + 1e-12);
        }
        // Threshold-0 tasks keep the exact seed.
        assert_eq!(result.entries[0].circuit.stats.max_abs_error, 0);
        assert!(result.stats.total_evaluations > 0);
        assert!(result.stats.wall_seconds > 0.0);
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let mut narrow = tiny_sweep();
        narrow.flow.iterations = 120;
        // Width 6 is the narrowest multiplier width on the incremental
        // (delta) engine, which `tiny_sweep`'s width 4 never reaches.
        let incremental = SweepConfig {
            distributions: vec![SweepDist::new("D6", Pmf::half_normal(6, 12.0))],
            flow: FlowConfig {
                width: 6,
                thresholds: vec![2e-3, 1e-2],
                iterations: 60,
                runs_per_threshold: 2,
                cols_slack: 20,
                activity_blocks: 8,
                ..FlowConfig::default()
            },
            ..SweepConfig::default()
        };
        for (mut cfg, delta) in [(narrow, false), (incremental, true)] {
            cfg.flow.threads = 4;
            let a = run_sweep(&cfg).unwrap();
            assert_eq!(a.evaluators[0].supports_incremental(), delta);
            cfg.flow.threads = 1;
            let b = run_sweep(&cfg).unwrap();
            assert_entries_bit_identical(&a, &b);
            assert_eq!(a.seed_estimates, b.seed_estimates);
        }
    }

    #[test]
    fn symbolic_sweep_past_the_cap_is_exact_and_thread_count_invariant() {
        // Past the cap the width puts adders on the symbolic backend (wide
        // multipliers stream on the bit-parallel one), so this small
        // width-12 adder grid is what runs a whole sweep through `apx_bdd`:
        // evolution, bounded scoring, the wide `stats` walk and power.
        let mut weights = vec![0.0f64; 1 << 12];
        for (x, w) in [(3, 2.0), (1000, 5.0), (2047, 1.0), (4000, 3.0)] {
            weights[x] = w;
        }
        let mut cfg = SweepConfig {
            distributions: vec![SweepDist::new("Dadd12", Pmf::from_weights(12, weights).unwrap())],
            flow: FlowConfig {
                operator: Operator::Add,
                width: 12,
                thresholds: vec![0.0, 1e-3],
                iterations: 2,
                runs_per_threshold: 1,
                cols_slack: 10,
                activity_blocks: 4,
                threads: 2,
                ..FlowConfig::default()
            },
            ..SweepConfig::default()
        };
        let a = run_sweep(&cfg).unwrap();
        assert_eq!(a.evaluators[0].backend(), apx_metrics::EvalBackend::Symbolic);
        assert_eq!(a.entries.len(), 2);
        for e in &a.entries {
            let m = &e.circuit;
            assert!(m.stats.wmed.is_finite(), "{}: non-finite WMED", m.name);
            if m.threshold == 0.0 {
                assert_eq!(m.stats.wmed, 0.0, "{}: the exact seed must score 0", m.name);
                assert_eq!(m.stats.max_abs_error, 0, "{}", m.name);
            }
        }
        cfg.flow.threads = 1;
        assert_entries_bit_identical(&a, &run_sweep(&cfg).unwrap());
    }

    #[test]
    fn best_per_threshold_minimizes_area_within_each_distribution() {
        let result = run_sweep(&tiny_sweep()).unwrap();
        for di in 0..2 {
            let best = result.best_per_threshold(di);
            assert_eq!(best.len(), 2);
            for b in best {
                for e in result.entries_for(di) {
                    if e.circuit.threshold == b.threshold {
                        assert!(b.estimate.area_um2 <= e.circuit.estimate.area_um2);
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_rejects_bad_configurations() {
        let empty = SweepConfig::default();
        assert!(matches!(run_sweep(&empty), Err(CoreError::BadConfig(_))));
        let mut mismatch = tiny_sweep();
        mismatch.distributions.push(SweepDist::new("bad", Pmf::uniform(8)));
        assert!(matches!(run_sweep(&mismatch), Err(CoreError::BadConfig(_))));
        let mut no_thresholds = tiny_sweep();
        no_thresholds.flow.thresholds.clear();
        assert!(matches!(run_sweep(&no_thresholds), Err(CoreError::BadConfig(_))));
        for shard in [Shard { index: 0, count: 0 }, Shard { index: 3, count: 3 }] {
            let mut bad_shard = tiny_sweep();
            bad_shard.shard = Some(shard);
            assert!(matches!(run_sweep(&bad_shard), Err(CoreError::BadConfig(_))));
        }
    }

    #[test]
    fn sweep_rejects_nan_and_negative_thresholds() {
        // A NaN budget would evolve as if unbounded, and a negative one would
        // score every offspring, the exact seed included, as infeasible.
        for bad in [f64::NAN, -1.0] {
            let mut cfg = tiny_sweep();
            cfg.flow.thresholds.push(bad);
            let err = run_sweep(&cfg).unwrap_err();
            let named = bad.to_string();
            assert!(matches!(err, CoreError::BadConfig(ref m) if m.contains(&named)), "{err}");
        }
    }

    #[test]
    fn warm_cache_run_is_bit_identical_and_all_hits() {
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let cold_no_cache = run_sweep(&cfg).unwrap();
        assert_eq!(cold_no_cache.stats.cache_hits, 0);
        assert_eq!(cold_no_cache.stats.cache_misses, 8, "no cache dir: every task computed");

        cfg.cache_dir = Some(fresh_cache_dir("warm"));
        let cold = run_sweep(&cfg).unwrap();
        assert_eq!(cold.stats.cache_misses, 8);
        let warm = run_sweep(&cfg).unwrap();
        assert_eq!(warm.stats.cache_hits, 8, "second run must load every task");
        assert_eq!(warm.stats.cache_misses, 0);
        // Cached entries are bit-identical to freshly computed ones, and
        // the cache itself never changes results vs. an uncached run.
        assert_entries_bit_identical(&cold, &warm);
        assert_entries_bit_identical(&cold_no_cache, &warm);
        assert_eq!(cold.seed_estimates, warm.seed_estimates);
        assert_eq!(
            cold.stats.total_evaluations, warm.stats.total_evaluations,
            "hits carry the evaluations their original computation spent"
        );
        assert_eq!(cold.stats.computed_evaluations, cold.stats.total_evaluations);
        assert_eq!(
            warm.stats.computed_evaluations, 0,
            "a fully warm run performs zero CGP evolutions"
        );
        assert_eq!(warm.stats.evaluations_per_second, 0.0, "no work, no claimed throughput");
    }

    #[test]
    fn cache_hits_do_not_depend_on_thread_count() {
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        cfg.cache_dir = Some(fresh_cache_dir("threads"));
        cfg.flow.threads = 4;
        let cold = run_sweep(&cfg).unwrap();
        cfg.flow.threads = 1;
        let warm = run_sweep(&cfg).unwrap();
        assert_eq!(warm.stats.cache_hits, 8);
        assert_entries_bit_identical(&cold, &warm);
    }

    #[test]
    fn interrupted_sweep_resumes_only_the_missing_tail() {
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let dir = fresh_cache_dir("resume");
        cfg.cache_dir = Some(dir.clone());
        let full = run_sweep(&cfg).unwrap();

        // Simulate a sweep killed partway: drop 3 of the 8 checkpointed
        // entries (a torn write is impossible by construction — files are
        // renamed into place whole — so deletion is the honest model).
        let mut files: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(files.len(), 8);
        files.sort();
        for f in &files[..3] {
            std::fs::remove_file(f).unwrap();
        }

        let resumed = run_sweep(&cfg).unwrap();
        assert_eq!(resumed.stats.cache_hits, 5);
        assert_eq!(resumed.stats.cache_misses, 3, "only the missing tail is recomputed");
        assert_entries_bit_identical(&full, &resumed);
    }

    #[test]
    fn corrupt_cache_entry_falls_back_to_recompute() {
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let dir = fresh_cache_dir("corrupt");
        cfg.cache_dir = Some(dir.clone());
        let cold = run_sweep(&cfg).unwrap();

        let mut files: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        files.sort();
        // One truncated, one outright garbage.
        let bytes = std::fs::read(&files[0]).unwrap();
        std::fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(&files[1], b"not a sweep entry at all\n").unwrap();

        let rerun = run_sweep(&cfg).unwrap();
        assert_eq!(rerun.stats.cache_hits, 6);
        assert_eq!(rerun.stats.cache_misses, 2, "corrupt entries recompute, never panic");
        assert_entries_bit_identical(&cold, &rerun);
        // The recompute overwrote the damage: next run is all hits again.
        assert_eq!(run_sweep(&cfg).unwrap().stats.cache_hits, 8);
    }

    /// Format-bump regression: pre-operator (`apxsweep v2`) entries must
    /// be clean misses, never misread. Real v2 files additionally sit at
    /// different filenames (the key preimage gained an operator line), so
    /// this plants worst-case impostors — v2-shaped content at *live* v3
    /// key paths — and the header guard alone must reject them.
    #[test]
    fn v2_format_entries_are_clean_misses_and_get_rewritten_as_v3() {
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let dir = fresh_cache_dir("v2_format");
        cfg.cache_dir = Some(dir.clone());
        let cold = run_sweep(&cfg).unwrap();
        assert_eq!(cold.stats.cache_misses, 8);

        let mut files: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(files.len(), 8);
        files.sort();
        for f in &files {
            let text = std::fs::read_to_string(f).unwrap();
            assert!(text.starts_with("apxsweep v3\n"), "entries are written as v3");
            assert!(text.contains("\nop mul 4 unsigned\n"), "v3 headers carry the operator");
            let downgraded =
                text.replace("apxsweep v3", "apxsweep v2").replace("op mul 4 ", "op 4 ");
            std::fs::write(f, downgraded).unwrap();
        }

        let rerun = run_sweep(&cfg).unwrap();
        assert_eq!(rerun.stats.cache_hits, 0, "v2 entries must never be served");
        assert_eq!(rerun.stats.cache_misses, 8, "every stale entry recomputes");
        assert_entries_bit_identical(&cold, &rerun);
        // The recompute rewrote every entry in v3 form: fully warm again.
        let warm = run_sweep(&cfg).unwrap();
        assert_eq!(warm.stats.cache_hits, 8);
        assert_entries_bit_identical(&cold, &warm);
    }

    #[test]
    fn sharded_runs_cover_the_grid_and_reassemble_to_the_unsharded_result() {
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let unsharded = run_sweep(&cfg).unwrap();

        let dir = fresh_cache_dir("shards");
        cfg.cache_dir = Some(dir.clone());
        let n = 3;
        let mut covered = 0;
        for index in 0..n {
            cfg.shard = Some(Shard { index, count: n });
            let part = run_sweep(&cfg).unwrap();
            assert_eq!(part.stats.tasks, 8, "`tasks` reports the full grid");
            assert_eq!(part.stats.shard_skipped, 8 - part.entries.len());
            assert_eq!(part.stats.cache_misses, part.entries.len(), "shards are disjoint");
            // Each shard's entries are the matching slice of the unsharded
            // run, bit for bit.
            for (e, full) in
                part.entries.iter().zip(unsharded.entries.iter().skip(index).step_by(n))
            {
                assert_eq!(e.circuit.name, full.circuit.name);
                assert_eq!(e.circuit.chromosome, full.circuit.chromosome);
                assert_eq!(e.circuit.stats, full.circuit.stats);
                assert_eq!(e.circuit.estimate, full.circuit.estimate);
            }
            covered += part.entries.len();
        }
        assert_eq!(covered, 8, "the shards partition the grid exactly");

        // The final unsharded resume assembles the whole grid from cache.
        cfg.shard = None;
        let assembled = run_sweep(&cfg).unwrap();
        assert_eq!(assembled.stats.cache_hits, 8);
        assert_eq!(assembled.stats.cache_misses, 0);
        assert_entries_bit_identical(&unsharded, &assembled);
    }

    #[test]
    fn empty_library_is_bit_identical_to_no_library() {
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let off = run_sweep(&cfg).unwrap();
        // Empty/missing directory, no conventional entries: library mode
        // must be a provable no-op (the acceptance contract for turning
        // `APX_LIBRARY=on` into the default some day).
        cfg.library = Some(LibraryConfig {
            dir: Some(fresh_cache_dir("libempty")),
            ..LibraryConfig::default()
        });
        let on = run_sweep(&cfg).unwrap();
        assert_eq!(on.stats.library_hits, 0);
        assert_eq!(on.stats.seeded_evolutions, 0);
        assert_entries_bit_identical(&off, &on);
        assert_eq!(off.stats.total_evaluations, on.stats.total_evaluations);
    }

    #[test]
    fn library_replays_its_own_tasks_bit_for_bit_via_key_match() {
        // Populate a cache, then run the *same* grid with caching off but
        // the library pointed at that directory: every task's content-
        // addressed key matches a harvested entry, so the whole sweep is
        // library hits and bit-identical to the original.
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let dir = fresh_cache_dir("libreplay");
        cfg.cache_dir = Some(dir.clone());
        let cold = run_sweep(&cfg).unwrap();

        // A fresh cache of our own: replays must be adopted into it (an
        // exact key match is bit-identical to what the task computes, so
        // checkpointing it is contract-safe), insuring this run against
        // the donor directory being GC'd later.
        let own_dir = fresh_cache_dir("libreplay_own");
        cfg.cache_dir = Some(own_dir);
        cfg.library = Some(LibraryConfig { dir: Some(dir), ..LibraryConfig::default() });
        let replayed = run_sweep(&cfg).unwrap();
        assert_eq!(replayed.stats.cache_hits, 0);
        assert_eq!(replayed.stats.library_hits, 8, "every task is an exact key match");
        assert_eq!(replayed.stats.cache_misses, 0);
        assert_eq!(replayed.stats.computed_evaluations, 0, "no CGP at all");
        assert_entries_bit_identical(&cold, &replayed);

        // Donor gone, library off: the adopted checkpoints carry the run.
        cfg.library = None;
        let warm = run_sweep(&cfg).unwrap();
        assert_eq!(warm.stats.cache_hits, 8, "adopted entries replay without the donor");
        assert_entries_bit_identical(&cold, &warm);
    }

    #[test]
    fn library_reuses_a_foreign_distribution_cache() {
        // The acceptance scenario: an overnight cache populated under one
        // distribution serves a sweep under *different* distributions.
        let donor = SweepConfig {
            distributions: vec![SweepDist::new("Dh", Pmf::half_normal(4, 3.0))],
            flow: FlowConfig {
                width: 4,
                thresholds: vec![0.0, 0.02, 0.1],
                iterations: 300,
                runs_per_threshold: 2,
                cols_slack: 20,
                threads: 2,
                activity_blocks: 8,
                ..FlowConfig::default()
            },
            cache_dir: Some(fresh_cache_dir("libforeign")),
            ..SweepConfig::default()
        };
        run_sweep(&donor).unwrap();

        // Different distribution, different seed → different task keys:
        // nothing can exact-replay, only re-scoring can help.
        let mut cfg = SweepConfig {
            distributions: vec![SweepDist::new("Du", Pmf::uniform(4))],
            flow: FlowConfig { seed: 99, thresholds: vec![0.05, 0.2], ..donor.flow.clone() },
            library: Some(LibraryConfig {
                dir: donor.cache_dir.clone(),
                ..LibraryConfig::default()
            }),
            ..SweepConfig::default()
        };
        let reused = run_sweep(&cfg).unwrap();
        assert!(
            reused.stats.library_hits > 0,
            "a loose budget must admit some donor candidate: {:?}",
            reused.stats
        );
        // Library or not, every result obeys its threshold.
        for e in &reused.entries {
            assert!(
                e.circuit.stats.wmed <= e.circuit.threshold + 1e-12,
                "{}: wmed {} over budget {}",
                e.circuit.name,
                e.circuit.stats.wmed,
                e.circuit.threshold
            );
        }
        // Hits carry zero evaluations (no evolution happened for them).
        assert!(reused.entries.iter().any(|e| e.circuit.evaluations == 0));
        // Determinism: thread count does not change library-mode results.
        cfg.flow.threads = 1;
        let single = run_sweep(&cfg).unwrap();
        assert_eq!(single.stats.library_hits, reused.stats.library_hits);
        assert_eq!(single.stats.seeded_evolutions, reused.stats.seeded_evolutions);
        assert_entries_bit_identical(&reused, &single);
    }

    #[test]
    fn seed_only_mode_warm_starts_evolutions_from_the_library() {
        // take_hits = false: the library never short-circuits a task; it
        // hands feasible candidates to CGP as initial parents instead
        // (the refinement mode).
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let dir = fresh_cache_dir("libseed");
        cfg.cache_dir = Some(dir.clone());
        let cold = run_sweep(&cfg).unwrap();

        cfg.cache_dir = None;
        // Deliberately the *same* configuration: every task's key matches
        // a harvested entry, and seed-only mode must still refuse to
        // short-circuit (an exact replay would skip the refinement that
        // is this mode's whole point — the harvested entry comes back as
        // the warm-start seed to beat instead).
        cfg.library =
            Some(LibraryConfig { dir: Some(dir), take_hits: false, ..LibraryConfig::default() });
        let seeded = run_sweep(&cfg).unwrap();
        assert_eq!(
            seeded.stats.library_hits, 0,
            "seed-only mode never takes hits, not even exact key matches"
        );
        assert!(
            seeded.stats.seeded_evolutions > 0,
            "an already-shrunk feasible candidate must beat the exact seed: {:?}",
            seeded.stats
        );
        for (s, c) in seeded.entries.iter().zip(&cold.entries) {
            let (sm, cm) = (&s.circuit, &c.circuit);
            assert!(sm.stats.wmed <= sm.threshold + 1e-12, "{} over budget", sm.name);
            // Warm-started evolution can only match or improve the donor
            // candidate pool it started from (area is the Eq. 1 cost).
            if sm.threshold > 0.0 {
                assert!(
                    sm.estimate.area_um2 <= cm.estimate.area_um2 + 1e-9,
                    "{}: seeded {} vs cold {}",
                    sm.name,
                    sm.estimate.area_um2,
                    cm.estimate.area_um2
                );
            }
        }
    }

    #[test]
    fn seeded_but_lost_evolutions_checkpoint_the_plain_result() {
        // Regression: a library-mode evolution whose seeds all lose runs
        // the exact unseeded trajectory, but its in-memory `evaluations`
        // includes the warm-start fitness calls. The checkpoint written
        // under the exact task key must be what a *plain* evolution
        // computes — a later no-library warm run replays it and must be
        // bit-identical (evaluations included) to a plain cold run.
        let mut donor_cfg = tiny_sweep();
        donor_cfg.flow.iterations = 120;
        let donor_dir = fresh_cache_dir("libplain_donor");
        donor_cfg.cache_dir = Some(donor_dir.clone());
        run_sweep(&donor_cfg).unwrap();

        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        cfg.flow.seed = 0x5EED_FACE; // fresh keys: no exact replays
        cfg.flow.thresholds = vec![0.0, 1e-9]; // nothing can hit or win
        let plain = run_sweep(&cfg).unwrap();

        let dir = fresh_cache_dir("libplain_cache");
        cfg.cache_dir = Some(dir);
        cfg.library = Some(LibraryConfig {
            dir: Some(donor_dir),
            // Seed-only mode: candidates are offered to every evolution
            // (and at threshold 1e-9 can only tie or violate, so they
            // all lose) — the checkpoint path under test.
            take_hits: false,
            ..LibraryConfig::default()
        });
        let libbed = run_sweep(&cfg).unwrap();
        assert_eq!(libbed.stats.library_hits, 0);
        assert_eq!(libbed.stats.seeded_evolutions, 0, "ties must keep the exact parent");
        // The library run itself matches the plain run except for the
        // honestly-reported warm-start evaluations.
        for (p, l) in plain.entries.iter().zip(&libbed.entries) {
            assert_eq!(p.circuit.chromosome, l.circuit.chromosome);
            assert_eq!(p.circuit.stats, l.circuit.stats);
            assert!(l.circuit.evaluations >= p.circuit.evaluations);
        }
        // The replayed checkpoints are indistinguishable from plain work.
        cfg.library = None;
        let warm = run_sweep(&cfg).unwrap();
        assert_eq!(warm.stats.cache_hits, 8, "every checkpoint replays");
        assert_entries_bit_identical(&plain, &warm);
    }

    #[test]
    fn library_rescore_is_bit_identical_to_sweep_reported_wmed() {
        use crate::library::ComponentLibrary;
        // Satellite contract: re-scoring a harvested chromosome under a
        // Pmf must reproduce the WMED the sweep itself reports for that
        // chromosome — threads 1 vs 4, cold run vs warm replay.
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let dir = fresh_cache_dir("librescore");
        cfg.cache_dir = Some(dir.clone());
        let cold = run_sweep(&cfg).unwrap();
        let warm = run_sweep(&cfg).unwrap();
        assert_eq!(warm.stats.cache_hits, 8);

        let mut lib = ComponentLibrary::new();
        assert!(lib.scan_cache(&dir) > 0);
        let tech = TechLibrary::nangate45();
        for (di, evaluator) in cold.evaluators.iter().enumerate() {
            for threads in [1, 4] {
                let rescored = lib.rescore(evaluator, &tech, threads);
                for source in cold.entries_for(di).chain(warm.entries_for(di)) {
                    let digest = apx_verify::structural_hash(&source.circuit.netlist);
                    let candidate = rescored
                        .candidates()
                        .iter()
                        .find(|c| c.entry.digest == digest)
                        .expect("every swept chromosome was harvested");
                    assert_eq!(
                        candidate.stats.wmed.to_bits(),
                        source.circuit.stats.wmed.to_bits(),
                        "{} rescored wmed differs ({} threads)",
                        source.circuit.name,
                        threads
                    );
                    assert_eq!(candidate.stats, source.circuit.stats);
                }
            }
        }
    }

    #[test]
    fn replay_recomputes_and_rewrites_an_entry_that_fails_the_lint() {
        let mut cfg = SweepConfig {
            distributions: vec![SweepDist::new("Du", Pmf::uniform(3))],
            flow: FlowConfig {
                width: 3,
                thresholds: vec![0.05],
                iterations: 60,
                runs_per_threshold: 1,
                threads: 1,
                activity_blocks: 4,
                ..FlowConfig::default()
            },
            ..SweepConfig::default()
        };
        cfg.cache_dir = Some(fresh_cache_dir("lint_replay"));
        let cold = run_sweep(&cfg).unwrap();
        let key = grid_keys(&cfg)[0];
        let cache = SweepCache::new(cfg.cache_dir.as_ref().unwrap());

        // Poison the entry: a genotype with the operator's 6 inputs but
        // 4 of its 6 outputs still parses under the `mul 3` line.
        let mut bad = cache.load(key).expect("cold run checkpointed its task");
        let mut rng = Xoshiro256::from_seed(5);
        bad.chromosome = Chromosome::random(6, 4, 20, &apx_cgp::FunctionSet::extended(), &mut rng);
        bad.netlist = bad.chromosome.decode_active();
        cache.store(key, &bad, Operator::Mul, 3, false).unwrap();
        assert!(cache.load(key).is_none(), "a linted-out entry is a miss");

        let rerun = run_sweep(&cfg).unwrap();
        assert_eq!((rerun.stats.cache_hits, rerun.stats.cache_misses), (0, 1));
        assert_entries_bit_identical(&cold, &rerun);
        let rewritten = cache.load(key).expect("the recomputed task overwrote the bad file");
        assert_eq!(rewritten.chromosome, cold.entries[0].circuit.chromosome);
        assert_eq!(rewritten.netlist.num_outputs(), 6);
    }

    #[test]
    fn grid_keys_cover_the_full_grid_and_ignore_sharding() {
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120; // iterations are part of every key
        let keys = grid_keys(&cfg);
        assert_eq!(keys.len(), 8);
        let unique: std::collections::HashSet<_> = keys.iter().copied().collect();
        assert_eq!(unique.len(), 8, "every task has a distinct key");
        cfg.shard = Some(Shard { index: 1, count: 3 });
        assert_eq!(grid_keys(&cfg), keys, "the live set is the whole grid, shard or not");
        // The keys are exactly the files a cold cached run leaves behind.
        cfg.shard = None;
        cfg.cache_dir = Some(fresh_cache_dir("gridkeys"));
        run_sweep(&cfg).unwrap();
        let cache = SweepCache::new(cfg.cache_dir.as_ref().unwrap());
        for key in keys {
            assert!(cache.load(key).is_some(), "{key} not checkpointed");
        }
    }

    #[test]
    fn gc_preserves_live_grid_and_library_hits() {
        use crate::cache::{cache_dir_stats, gc_cache_dir, GcConfig};

        // Two generations of the same grid share one cache directory; GC
        // driven by the *current* generation's live keys evicts the
        // dominated remains of the old one, while a library-mode consumer
        // reports the same hits before and after (the autoAx contract:
        // only dominated — never takeable — candidates were dropped).
        let dir = fresh_cache_dir("gc_live");
        let mut old_gen = tiny_sweep();
        old_gen.flow.iterations = 120;
        old_gen.cache_dir = Some(dir.clone());
        run_sweep(&old_gen).unwrap();

        let mut live = old_gen.clone();
        live.flow.seed = 0xA11CE; // same grid shape, disjoint keys
        let live_cold = run_sweep(&live).unwrap();
        assert_eq!(live_cold.stats.cache_misses, 8);
        assert_eq!(cache_dir_stats(&dir).entries, 16);

        // A library consumer with fresh keys (nothing exact-replays):
        // every hit is a re-scored Pareto-front candidate.
        let consumer = SweepConfig {
            distributions: vec![SweepDist::new("Dc", Pmf::uniform(4))],
            flow: FlowConfig { seed: 31337, thresholds: vec![0.05, 0.2], ..live.flow.clone() },
            library: Some(LibraryConfig { dir: Some(dir.clone()), ..LibraryConfig::default() }),
            ..SweepConfig::default()
        };
        let before = run_sweep(&consumer).unwrap();
        assert!(before.stats.library_hits > 0, "loose budgets must hit: {:?}", before.stats);

        let gc = GcConfig {
            keep: grid_keys(&live).into_iter().collect(),
            distributions: live
                .distributions
                .iter()
                .chain(&consumer.distributions)
                .map(|d| d.pmf.clone())
                .collect(),
            threads: 2,
            tmp_ttl: std::time::Duration::ZERO,
        };
        let report = gc_cache_dir(&dir, &gc).unwrap();
        assert_eq!(report.entries_before, 16);
        assert_eq!(report.kept_live, 8, "the live grid is untouchable");
        assert!(report.evicted > 0, "dominated historical entries must go");
        assert_eq!(report.kept(), cache_dir_stats(&dir).entries);

        // The live grid still warm-replays bit-identically...
        let warm = run_sweep(&live).unwrap();
        assert_eq!(warm.stats.cache_hits, 8);
        assert_entries_bit_identical(&live_cold, &warm);

        // ...and the consumer takes the same hits from the survivors.
        let after = run_sweep(&consumer).unwrap();
        assert_eq!(after.stats.library_hits, before.stats.library_hits);
        for (b, a) in before.entries.iter().zip(&after.entries) {
            assert!(a.circuit.stats.wmed <= a.circuit.threshold + 1e-12);
            if b.circuit.evaluations == 0 {
                // A pre-GC hit is on the surviving front: same candidate,
                // same estimate, bit for bit.
                assert_eq!(b.circuit.chromosome, a.circuit.chromosome);
                assert_eq!(b.circuit.stats, a.circuit.stats);
                assert_eq!(b.circuit.estimate, a.circuit.estimate);
            }
        }
    }

    /// Stores a donor entry whose netlist pins every output to a bit of
    /// `pattern`.
    fn store_constant_donor(cache: &SweepCache, flow: &FlowConfig, pattern: u64, run: usize) {
        let op = flow.operator;
        let mut b = apx_gates::NetlistBuilder::new(op.num_inputs(flow.width));
        let zero = b.const0();
        let one = b.const1();
        let outs: Vec<_> = (0..op.num_outputs(flow.width))
            .map(|k| if (pattern >> k) & 1 == 1 { one } else { zero })
            .collect();
        b.outputs(&outs);
        let netlist = b.finish().unwrap();
        let chromosome = Chromosome::from_netlist(
            &netlist,
            &apx_cgp::FunctionSet::extended(),
            netlist.gate_count(),
        )
        .unwrap();
        let circuit = EvolvedCircuit {
            name: format!("const_{pattern}"),
            netlist: chromosome.decode_active(),
            chromosome,
            threshold: 0.9,
            run,
            stats: ErrorStats {
                med: 0.0,
                wmed: 0.0,
                wce: 0.0,
                error_rate: 0.0,
                mred: 0.0,
                max_abs_error: 0,
            },
            estimate: CircuitEstimate {
                area_um2: 0.0,
                delay_ns: 0.0,
                leakage_uw: 0.0,
                dynamic_uw: 0.0,
                clock_mhz: DEFAULT_CLOCK_MHZ,
            },
            evaluations: 1,
        };
        let key = task_key(flow, &Pmf::uniform(flow.width), 0.9, run, 0xD0_0D + run as u64);
        cache.store(key, &circuit, op, flow.width, false).unwrap();
    }

    #[test]
    fn prune_flag_is_inert() {
        // `LibraryConfig::prune` is a retired name: both settings re-score
        // every candidate, skip none and produce bit-identical entries.
        // The donor library mixes low constant circuits (near-misses that
        // become seeds) with the all-ones constant, the candidate a bound
        // pass would skip at every threshold.
        let donor_dir = fresh_cache_dir("prune_donor");
        let mut cfg = tiny_sweep();
        cfg.flow.iterations = 120;
        let donor_flow = FlowConfig { seed: 0xBAD_5EED, ..cfg.flow.clone() };
        let donor = SweepCache::new(&donor_dir);
        for (i, pattern) in [255u64, 0, 1, 2, 3, 4, 5].into_iter().enumerate() {
            store_constant_donor(&donor, &donor_flow, pattern, i);
        }

        cfg.library = Some(LibraryConfig {
            dir: Some(donor_dir),
            take_hits: false, // constants can't hit 0.02; force the seed path
            prune: false,
            ..LibraryConfig::default()
        });
        let off = run_sweep(&cfg).unwrap();
        cfg.library.as_mut().unwrap().prune = true;
        let on = run_sweep(&cfg).unwrap();
        assert_eq!(off.stats.library_pruned, 0);
        assert_eq!(on.stats.library_pruned, 0, "the flag must not skip any candidate");
        assert_entries_bit_identical(&off, &on);
        assert_eq!(off.stats.seeded_evolutions, on.stats.seeded_evolutions);
        assert_eq!(off.stats.library_hits, on.stats.library_hits);
        assert_eq!(off.stats.total_evaluations, on.stats.total_evaluations);
    }
}
