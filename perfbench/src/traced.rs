//! The traced run: each workload re-driven from the public calls
//! `run_sweep` is made of, with a span around every call into a layer.
//!
//! `run_sweep` exposes no hooks for fitness, statistics, power or
//! library selection, so this module copies the sweep's task order,
//! per-task seed derivation, cache/library resolution order and the
//! library's dedup and pruned re-scoring, calling the same public
//! functions. The traced result must reproduce the untraced result digest
//! bit for bit ([`crate::check::digest`]); a divergence from
//! `apx_core::run_sweep` therefore fails the run instead of skewing the
//! split.

use crate::report::{median, ratio, tail, Metric};
use crate::trace::{FitnessTally, Layers, Probe, TracedFitness};
use crate::workload::{fig3_extras, Plan, RepDirs, RunOutput, Workload};
use apx_approxlib::MultiplierLibrary;
use apx_arith::Operator;
use apx_cgp::{evolve_seeded, Chromosome, EvolutionConfig, FunctionSet};
use apx_core::cache::{gc_cache_dir, task_key, CacheKey, SweepCache};
use apx_core::library::{ComponentLibrary, LibraryEntry};
use apx_core::{
    Eq1Fitness, EvolvedCircuit, FlowConfig, SweepConfig, SweepEntry, SweepResult, SweepStats,
};
use apx_gates::Netlist;
use apx_metrics::{CircuitEvaluator, ErrorStats};
use apx_rng::Xoshiro256;
use apx_techlib::{area_of, estimate_under_pmf, CircuitEstimate, TechLibrary, DEFAULT_CLOCK_MHZ};
use apx_verify::{functional_digest, wmed_bounds_weighted};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The sweep's per-task RNG stream derivation (`apx_core::flow`), copied
/// so the traced tasks evolve exactly what `run_sweep`'s do.
fn task_seed(seed: u64, dist: usize, ti: usize, run: usize) -> u64 {
    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut s = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    s = splitmix64(s ^ dist as u64);
    s = splitmix64(s ^ ti as u64);
    splitmix64(s ^ run as u64)
}

/// Pool phases of one traced run.
#[derive(Debug, Default, Clone)]
pub struct PoolTally {
    /// Wall time of the pool phases.
    pub wall_s: f64,
    /// Duration of every pool task.
    pub task_s: Vec<f64>,
    /// Worker threads.
    pub threads: usize,
}

/// A traced timed phase: the same output as the untraced one, plus the
/// spans and the pool record.
#[derive(Debug)]
pub struct TraceRun {
    /// The result (digest-compared against the untraced run).
    pub out: RunOutput,
    /// Spans and counters, all threads merged; its `covered_s` is the
    /// main thread's time inside outermost layer spans.
    pub layers: Layers,
    /// The pool phases.
    pub pool: PoolTally,
}

/// The harvested library after dedup: the surviving entries in
/// ingestion order.
struct Library {
    lib: ComponentLibrary,
    keep: Vec<bool>,
    dups: usize,
}

impl Library {
    fn entries(&self) -> impl Iterator<Item = &LibraryEntry> {
        self.lib.entries().zip(&self.keep).filter(|(_, &k)| k).map(|(e, _)| e)
    }
}

/// `ComponentLibrary::dedup_semantic`, split so each `functional_digest`
/// call is its own `verify.digest` span.
fn dedup(lib: &ComponentLibrary, tech: &TechLibrary, tr: &mut Layers) -> (Vec<bool>, usize) {
    let entries: Vec<&LibraryEntry> = lib.entries().collect();
    let mut classes: HashMap<(Operator, u32, bool, u128), usize> = HashMap::new();
    let mut keep = vec![true; entries.len()];
    for (i, entry) in entries.iter().enumerate() {
        let Some(fd) = tr.span("verify.digest", |_| functional_digest(&entry.netlist)) else {
            continue;
        };
        match classes.entry((entry.op, entry.width, entry.signed, fd)) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(i);
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let held = entries[*o.get()];
                let (area_i, area_j) =
                    (area_of(&entry.netlist, tech), area_of(&held.netlist, tech));
                if area_i.total_cmp(&area_j).then_with(|| entry.name.cmp(&held.name)).is_lt() {
                    keep[*o.get()] = false;
                    o.insert(i);
                } else {
                    keep[i] = false;
                }
            }
        }
    }
    let dups = keep.iter().filter(|&&k| !k).count();
    (keep, dups)
}

/// One distribution's ranking: `(entry, stats, area)` cheapest first —
/// `ComponentLibrary::rescore_pruned`'s `RescoredLibrary`.
struct Ranked<'a> {
    candidates: Vec<(&'a LibraryEntry, ErrorStats, f64)>,
    pruned: usize,
}

impl<'a> Ranked<'a> {
    /// `ComponentLibrary::rescore_pruned` with every bound and the
    /// batched statistics pass in their own spans.
    fn rescore(
        lib: &'a Library,
        evaluator: &CircuitEvaluator,
        tech: &TechLibrary,
        threads: usize,
        max_threshold: Option<f64>,
        max_seeds: usize,
        tr: &mut Layers,
    ) -> Self {
        let (op, width, signed) = (evaluator.operator(), evaluator.width(), evaluator.is_signed());
        let mut matching: Vec<&LibraryEntry> = lib
            .entries()
            .filter(|e| e.op == op && e.width == width && e.signed == signed)
            .collect();
        tr.count("library.offered", matching.len() as u64);
        let mut pruned = 0;
        if let Some(max_threshold) = max_threshold {
            if matching.len() > max_seeds {
                let bounds: Vec<_> = matching
                    .iter()
                    .map(|e| {
                        tr.span("verify.bounds", |_| {
                            wmed_bounds_weighted(&e.netlist, op, width, signed, evaluator.weights())
                        })
                    })
                    .collect();
                let keep: Vec<bool> = bounds
                    .iter()
                    .map(|b| {
                        b.wmed_lo <= max_threshold
                            || bounds.iter().filter(|o| o.wmed_hi < b.wmed_lo).count() < max_seeds
                    })
                    .collect();
                let mut it = keep.iter();
                matching.retain(|_| *it.next().expect("one keep flag per candidate"));
                pruned = keep.iter().filter(|&&k| !k).count();
            }
        }
        let netlists: Vec<Netlist> = matching.iter().map(|e| e.netlist.clone()).collect();
        let start = Instant::now();
        let stats = evaluator.stats_batch(&netlists, threads);
        tr.add("metrics.stats", start.elapsed().as_secs_f64(), netlists.len() as u64);
        let mut candidates: Vec<(&LibraryEntry, ErrorStats, f64)> = matching
            .into_iter()
            .zip(stats)
            .map(|(e, s)| (e, s, area_of(&e.netlist, tech)))
            .collect();
        candidates.sort_by(|a, b| {
            a.2.total_cmp(&b.2)
                .then_with(|| a.1.wmed.total_cmp(&b.1.wmed))
                .then_with(|| a.0.name.cmp(&b.0.name))
        });
        Ranked { candidates, pruned }
    }

    /// `RescoredLibrary::best_meeting`.
    fn best_meeting(&self, threshold: f64) -> Option<&(&'a LibraryEntry, ErrorStats, f64)> {
        self.candidates.iter().find(|c| c.1.wmed <= threshold)
    }

    /// `RescoredLibrary::seeds`, as chromosomes.
    fn seeds(&self, threshold: f64, max: usize) -> Vec<Chromosome> {
        let mut ranked: Vec<&(&LibraryEntry, ErrorStats, f64)> = self.candidates.iter().collect();
        ranked.sort_by(|a, b| {
            let (fa, fb) = (a.1.wmed <= threshold, b.1.wmed <= threshold);
            fb.cmp(&fa)
                .then_with(|| {
                    if fa && fb {
                        a.2.total_cmp(&b.2)
                    } else {
                        a.1.wmed.total_cmp(&b.1.wmed)
                    }
                })
                .then_with(|| a.0.name.cmp(&b.0.name))
        });
        ranked.into_iter().take(max).map(|c| c.0.chromosome.clone()).collect()
    }
}

/// How a task that was not replayed gets its result (`run_sweep`'s
/// `Work`).
enum Work {
    Evolve(Vec<Chromosome>),
    TakeCandidate { chromosome: Chromosome, netlist: Netlist, stats: ErrorStats },
}

/// One pool task of the traced sweep: evolve (or take a library
/// candidate), score, estimate and checkpoint, every call in a span.
#[allow(clippy::too_many_arguments)]
fn run_task(
    flow: &FlowConfig,
    cfg: &SweepConfig,
    tech: &TechLibrary,
    seed_chrom: &Chromosome,
    evaluator: &Arc<CircuitEvaluator>,
    cache: Option<&SweepCache>,
    (di, ti, run): (usize, usize, usize),
    key: Option<CacheKey>,
    work: Work,
    l: &mut Layers,
) -> (EvolvedCircuit, bool) {
    let seed = task_seed(flow.seed, di, ti, run);
    let name = format!("{}_t{ti}_r{run}", cfg.distributions[di].name);
    let threshold = flow.thresholds[ti];
    let pmf = &cfg.distributions[di].pmf;
    let estimate = |l: &mut Layers, netlist: &Netlist| -> CircuitEstimate {
        let mut rng = Xoshiro256::from_seed(seed ^ 0xE57);
        l.span("techlib.power", |_| {
            estimate_under_pmf(
                netlist,
                tech,
                pmf,
                DEFAULT_CLOCK_MHZ,
                flow.activity_blocks,
                &mut rng,
            )
        })
    };
    match work {
        Work::Evolve(seeds) => {
            let (chromosome, evaluations, initial_seed) = if threshold == 0.0 {
                (seed_chrom.clone(), 0, None)
            } else {
                let tally = FitnessTally::default();
                let fitness = TracedFitness::new(
                    Eq1Fitness::with_evaluator(Arc::clone(evaluator), tech.clone(), threshold),
                    &tally,
                );
                let config = EvolutionConfig {
                    lambda: flow.lambda,
                    mutations: flow.mutations,
                    max_iterations: flow.iterations,
                    seed,
                    parallel: false,
                    target_fitness: None,
                    keep_history: false,
                };
                let r =
                    l.span("cgp.evolve", |_| evolve_seeded(seed_chrom, &seeds, fitness, &config));
                tally.report(l);
                (r.best, r.evaluations, r.initial_seed)
            };
            let netlist = chromosome.decode_active();
            let stats = l.span("metrics.stats", |_| evaluator.stats(&netlist));
            let estimate = estimate(l, &netlist);
            let m = EvolvedCircuit {
                name,
                chromosome,
                netlist,
                threshold,
                run,
                stats,
                estimate,
                evaluations,
            };
            if initial_seed.is_none() {
                if let (Some(c), Some(k)) = (cache, key) {
                    let mut plain = m.clone();
                    plain.evaluations -= seeds.len() as u64;
                    let _ = l.span("cache.store", |_| {
                        c.store(k, &plain, flow.operator, flow.width, flow.signed)
                    });
                }
            }
            (m, initial_seed.is_some())
        }
        Work::TakeCandidate { chromosome, netlist, stats } => {
            let estimate = estimate(l, &netlist);
            let m = EvolvedCircuit {
                name,
                chromosome,
                netlist,
                threshold,
                run,
                stats,
                estimate,
                evaluations: 0,
            };
            (m, false)
        }
    }
}

/// `apx_core::run_sweep` (unsharded), re-driven call by call.
///
/// # Errors
///
/// Describes a seed-encoding, evaluator or worker failure.
#[allow(clippy::too_many_lines)]
pub fn traced_sweep(
    cfg: &SweepConfig,
    tr: &mut Layers,
    pool: &mut PoolTally,
) -> Result<SweepResult, String> {
    let flow = &cfg.flow;
    let tech = TechLibrary::nangate45();
    let seed_netlist = flow.operator.seed_circuit(flow.width, flow.signed);
    let seed_chrom = Chromosome::from_netlist(
        &seed_netlist,
        &FunctionSet::extended(),
        seed_netlist.gate_count() + flow.cols_slack,
    )
    .map_err(|e| e.to_string())?;
    let evaluators: Vec<Arc<CircuitEvaluator>> = cfg
        .distributions
        .iter()
        .map(|d| {
            tr.span("metrics.build", |_| {
                CircuitEvaluator::for_operator(flow.operator, flow.width, flow.signed, &d.pmf)
            })
            .map(Arc::new)
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let grid: Vec<(usize, usize, usize)> = (0..cfg.distributions.len())
        .flat_map(|di| {
            (0..flow.thresholds.len())
                .flat_map(move |ti| (0..flow.runs_per_threshold).map(move |r| (di, ti, r)))
        })
        .collect();
    let threads = flow.threads.max(1);
    let cache = cfg.cache_dir.as_ref().map(SweepCache::new);

    let library: Option<Library> = cfg.library.as_ref().map(|lc| {
        let lib = tr.span("library.scan", |_| {
            let mut lib = ComponentLibrary::new();
            if let Some(dir) = &lc.dir {
                lib.scan_cache(dir);
            }
            // The workloads' class only (unsigned multipliers); another
            // class would change the library, and the digest comparison
            // with the untraced run would fail loudly.
            if lc.conventional && flow.operator == Operator::Mul && flow.width >= 3 && !flow.signed
            {
                lib.ingest_conventional(&MultiplierLibrary::evoapprox_like(flow.width));
            }
            lib
        });
        tr.count("library.candidates", lib.len() as u64);
        let (keep, dups) = if lc.semantic_dedup {
            tr.span("library.dedup", |tr| dedup(&lib, &tech, tr))
        } else {
            (vec![true; lib.len()], 0)
        };
        Library { lib, keep, dups }
    });
    let library_semantic_dups = library.as_ref().map_or(0, |l| l.dups);
    let max_threshold = cfg
        .library
        .as_ref()
        .filter(|l| l.prune)
        .map(|_| flow.thresholds.iter().fold(f64::NEG_INFINITY, |m, &t| m.max(t)));
    let max_seeds = cfg.library.as_ref().map_or(0, |l| l.max_seeds);
    let take_hits = cfg.library.as_ref().is_some_and(|l| l.take_hits);
    let mut rescored: Vec<Option<Ranked<'_>>> = cfg.distributions.iter().map(|_| None).collect();
    let seed_area = area_of(&seed_chrom.decode_active(), &tech);

    let mut slots: Vec<Option<EvolvedCircuit>> = Vec::with_capacity(grid.len());
    let mut to_compute = Vec::new();
    let (mut cache_hits, mut library_hits) = (0usize, 0usize);
    for (pos, &(di, ti, run)) in grid.iter().enumerate() {
        let pmf = &cfg.distributions[di].pmf;
        let key = (cache.is_some() || library.is_some()).then(|| {
            task_key(flow, pmf, flow.thresholds[ti], run, task_seed(flow.seed, di, ti, run))
        });
        let mut hit = match (&cache, key) {
            (Some(c), Some(k)) => tr.span("cache.load", |_| c.load(k)),
            _ => None,
        };
        cache_hits += usize::from(hit.is_some());
        if hit.is_none() && take_hits {
            hit = library.as_ref().and_then(|l| {
                key.and_then(|k| l.lib.exact_match(k, flow.operator, flow.width, flow.signed))
                    .cloned()
            });
            if let Some(m) = &hit {
                library_hits += 1;
                if let (Some(c), Some(k)) = (&cache, key) {
                    let _ = tr.span("cache.store", |_| {
                        c.store(k, m, flow.operator, flow.width, flow.signed)
                    });
                }
            }
        }
        slots.push(hit.map(|mut m| {
            m.name = format!("{}_t{ti}_r{run}", cfg.distributions[di].name);
            m
        }));
        if slots[pos].is_some() {
            continue;
        }
        let ranking = match &library {
            Some(lib) if lib.keep.iter().any(|&k| k) => {
                if rescored[di].is_none() {
                    let r = tr.span("library.rescore", |tr| {
                        Ranked::rescore(
                            lib,
                            &evaluators[di],
                            &tech,
                            threads,
                            max_threshold,
                            max_seeds,
                            tr,
                        )
                    });
                    rescored[di] = Some(r);
                }
                rescored[di].as_ref()
            }
            _ => None,
        };
        let threshold = flow.thresholds[ti];
        let seeds = |r: &Ranked<'_>| {
            if threshold == 0.0 {
                Vec::new()
            } else {
                r.seeds(threshold, max_seeds)
            }
        };
        let work = match ranking {
            Some(r) if take_hits => match r.best_meeting(threshold) {
                Some(c) if c.2 < seed_area => {
                    library_hits += 1;
                    Work::TakeCandidate {
                        chromosome: c.0.chromosome.clone(),
                        netlist: c.0.netlist.clone(),
                        stats: c.1,
                    }
                }
                _ => Work::Evolve(seeds(r)),
            },
            Some(r) => Work::Evolve(seeds(r)),
            None => Work::Evolve(Vec::new()),
        };
        to_compute.push((pos, (di, ti, run), key, work));
    }
    let cache_misses =
        to_compute.iter().filter(|(_, _, _, w)| matches!(w, Work::Evolve(_))).count();

    let pool_start = Instant::now();
    let computed = apx_pool::scope_map(threads, to_compute, |_, (pos, task, key, work)| {
        let start = Instant::now();
        let mut l = Layers::default();
        let (m, seeded) = run_task(
            flow,
            cfg,
            &tech,
            &seed_chrom,
            &evaluators[task.0],
            cache.as_ref(),
            task,
            key,
            work,
            &mut l,
        );
        (pos, m, seeded, l, start.elapsed().as_secs_f64())
    })
    .map_err(|p| format!("traced task {} panicked: {}", p.index, p.message))?;
    pool.wall_s += pool_start.elapsed().as_secs_f64();
    pool.threads = threads;

    let library_pruned: usize = rescored.iter().flatten().map(|r| r.pruned).sum();
    let (mut computed_evaluations, mut seeded_evolutions) = (0u64, 0usize);
    for (pos, m, seeded, l, secs) in computed {
        computed_evaluations += m.evaluations;
        seeded_evolutions += usize::from(seeded);
        tr.merge(&l);
        pool.task_s.push(secs);
        slots[pos] = Some(m);
    }
    let entries: Vec<SweepEntry> = slots
        .into_iter()
        .zip(&grid)
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
            let mut rng =
                Xoshiro256::from_seed((flow.seed ^ 0x5EED).wrapping_add((di as u64) << 48));
            tr.span("techlib.power", |_| {
                estimate_under_pmf(
                    &compact_seed,
                    &tech,
                    &d.pmf,
                    DEFAULT_CLOCK_MHZ,
                    flow.activity_blocks,
                    &mut rng,
                )
            })
        })
        .collect();
    Ok(SweepResult {
        entries,
        evaluators,
        seed_estimates,
        seed_netlist,
        stats: SweepStats {
            wall_seconds: 0.0,
            total_evaluations,
            computed_evaluations,
            evaluations_per_second: 0.0,
            threads,
            tasks: grid.len(),
            cache_hits,
            cache_misses,
            shard_skipped: 0,
            library_hits,
            seeded_evolutions,
            library_pruned,
            library_semantic_dups,
        },
    })
}

/// The traced timed phase of `plan`'s workload.
///
/// # Errors
///
/// Describes a sweep or GC failure.
pub fn run_traced(plan: &Plan, dirs: &RepDirs) -> Result<TraceRun, String> {
    let mut tr = Layers::default();
    let mut pool = PoolTally::default();
    let mut cfg = plan.sweep.clone();
    cfg.cache_dir = Some(dirs.cache.clone());
    let out = match plan.workload {
        Workload::Fig3Cold => {
            let sweep = traced_sweep(&cfg, &mut tr, &mut pool)?;
            let extras = fig3_extras(&mut tr, plan, &sweep);
            RunOutput { sweep, warm: None, extras, gc: None }
        }
        Workload::LibraryReuse => {
            let donor = dirs.donor.as_ref().ok_or("library_reuse needs a donor")?;
            let gc_dir = dirs.gc.as_ref().ok_or("library_reuse needs a GC copy")?;
            cfg.library = Some(Plan::library(donor));
            let sweep = traced_sweep(&cfg, &mut tr, &mut pool)?;
            let warm = traced_sweep(&cfg, &mut tr, &mut pool)?;
            let gc = tr
                .span("cache.gc", |_| gc_cache_dir(gc_dir, &plan.gc_config()))
                .map_err(|e| e.to_string())?;
            RunOutput { sweep, warm: Some(warm), extras: Vec::new(), gc: Some(gc) }
        }
        Workload::WideSymbolic => {
            cfg.cache_dir = None;
            let sweep = traced_sweep(&cfg, &mut tr, &mut pool)?;
            RunOutput { sweep, warm: None, extras: Vec::new(), gc: None }
        }
    };
    Ok(TraceRun { out, layers: tr, pool })
}

/// Every per-layer metric of one traced run whose timed phase took
/// `wall_s`, in `BENCHMARK.json` order (without `trace.overhead_ratio`,
/// which needs the untraced runs).
#[must_use]
pub fn layer_metrics(run: &TraceRun, wall_s: f64) -> Vec<Metric> {
    let l = &run.layers;
    let sweeps: Vec<&SweepStats> =
        std::iter::once(&run.out.sweep).chain(&run.out.warm).map(|r| &r.stats).collect();
    let sum = |f: fn(&SweepStats) -> usize| sweeps.iter().map(|s| f(s)).sum::<usize>() as f64;
    let tasks = sum(|s| s.tasks);
    let busy: f64 = run.pool.task_s.iter().sum();
    let fit_evals = l.n("fitness.infeasible") + l.n("fitness.neutral") + l.n("fitness.feasible");
    let fit_s = l.s("fitness.infeasible")
        + l.s("fitness.neutral")
        + l.s("fitness.feasible")
        + l.s("fitness.rebase");
    let gc = run.out.gc.as_ref();
    let count = |name, value: f64| Metric { name, value, unit: "count" };
    let secs = |name, value: f64| Metric { name, value, unit: "s" };
    let share = |name, value: f64| Metric { name, value, unit: "ratio" };
    vec![
        count("sweep.tasks", tasks),
        count("sweep.cache_hits", sum(|s| s.cache_hits)),
        count("sweep.library_hits", sum(|s| s.library_hits)),
        count("sweep.seeded", sum(|s| s.seeded_evolutions)),
        secs("sweep.task_p50_s", median(&run.pool.task_s)),
        secs("sweep.task_p75_s", tail(&run.pool.task_s)),
        secs("sweep.self_s", wall_s - l.covered_s - run.pool.wall_s),
        secs("pool.busy_s", busy),
        secs("pool.idle_s", run.pool.threads as f64 * run.pool.wall_s - busy),
        secs("metrics.build_s", l.s("metrics.build")),
        count("metrics.stats_calls", l.n("metrics.stats") as f64),
        secs("metrics.stats_s", l.s("metrics.stats")),
        count("metrics.wmed_calls", l.n("metrics.wmed") as f64),
        secs("metrics.wmed_s", l.s("metrics.wmed")),
        count("fitness.evals", fit_evals as f64),
        count("fitness.infeasible", l.n("fitness.infeasible") as f64),
        secs("fitness.infeasible_s", l.s("fitness.infeasible")),
        count("fitness.neutral", l.n("fitness.neutral") as f64),
        secs("fitness.neutral_s", l.s("fitness.neutral")),
        count("fitness.feasible", l.n("fitness.feasible") as f64),
        secs("fitness.feasible_s", l.s("fitness.feasible")),
        count("fitness.rebase_calls", l.n("fitness.rebase") as f64),
        secs("fitness.rebase_s", l.s("fitness.rebase")),
        secs("cgp.evolve_s", l.s("cgp.evolve")),
        secs("cgp.self_s", l.s("cgp.evolve") - fit_s),
        share("cgp.promotion_ratio", ratio(l.n("fitness.rebase") as f64, fit_evals as f64)),
        count("techlib.power_calls", l.n("techlib.power") as f64),
        secs("techlib.power_s", l.s("techlib.power")),
        count("cache.load_calls", l.n("cache.load") as f64),
        secs("cache.load_s", l.s("cache.load")),
        count("cache.store_calls", l.n("cache.store") as f64),
        secs("cache.store_s", l.s("cache.store")),
        secs("cache.gc_s", l.s("cache.gc")),
        count(
            "cache.gc_deleted",
            gc.map_or(0, |g| g.evicted + g.corrupt_removed + g.tmp_removed) as f64,
        ),
        count("cache.gc_kept", gc.map_or(0, apx_core::cache::GcReport::kept) as f64),
        secs("library.scan_s", l.s("library.scan")),
        count("library.candidates", l.n("library.candidates") as f64),
        secs("library.dedup_s", l.s("library.dedup")),
        count("library.semantic_dups", sum(|s| s.library_semantic_dups)),
        share(
            "library.dup_ratio",
            ratio(sum(|s| s.library_semantic_dups), l.n("library.candidates") as f64),
        ),
        secs("library.rescore_s", l.s("library.rescore")),
        count("library.pruned", sum(|s| s.library_pruned)),
        share(
            "library.prune_ratio",
            ratio(sum(|s| s.library_pruned), l.n("library.offered") as f64),
        ),
        share("library.hit_ratio", ratio(sum(|s| s.library_hits), tasks)),
        count("verify.bounds_calls", l.n("verify.bounds") as f64),
        secs("verify.bounds_s", l.s("verify.bounds")),
        count("verify.digest_calls", l.n("verify.digest") as f64),
        secs("verify.digest_s", l.s("verify.digest")),
    ]
}
