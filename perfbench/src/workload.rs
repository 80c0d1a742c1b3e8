//! The three workloads: what each one runs, how its inputs derive from
//! the seed, and its untraced timed phase (the real `run_sweep`,
//! `gc_cache_dir` and evaluator calls a user's run makes).

use crate::trace::Probe;
use apx_bench::{sweep_distributions, wide_sweep_grid};
use apx_core::cache::{gc_cache_dir, GcConfig, GcReport};
use apx_core::{grid_keys, run_sweep, LibraryConfig, SweepConfig, SweepDist, SweepResult};
use apx_dist::Pmf;
use apx_metrics::EvalBackend;
use apx_rng::Xoshiro256;
use apx_techlib::{estimate_under_pmf, TechLibrary, DEFAULT_CLOCK_MHZ};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// CGP generations per task of the Fig. 3 grids (the `fig3_pareto`
/// default).
pub const FIG3_ITERATIONS: u64 = 2_000;
/// CGP generations per task of the donor grid `library_reuse` harvests.
pub const DONOR_ITERATIONS: u64 = 2_000;
/// Master seed of the donor grid: `fig3_pareto`'s own, so the donor is
/// what a default `fig3_pareto` run leaves in its cache. It is fixed, not
/// derived from the benchmark seed, so which tasks the library serves,
/// which evolve and which a library seed wins is the same on every seed;
/// only the evolved tasks' trajectories vary.
pub const DONOR_SEED: u64 = 0xF163;
/// CGP generations per task of the wide symbolic grid (the `sweep_wide`
/// default).
pub const WIDE_ITERATIONS: u64 = 10;
/// Operand width of the wide symbolic grid (22 netlist inputs).
pub const WIDE_WIDTH: u32 = 11;
const _: () =
    assert!(2 * WIDE_WIDTH > 20, "the wide grid must be past the 20-input enumeration cap");
/// WMED budget of the wide grid's evolved task.
pub const WIDE_THRESHOLD: f64 = 1e-7;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold Fig. 3: 3 distributions × 14 thresholds, width-8 `bitpar`
    /// multipliers, into an empty cache, plus the cross-distribution
    /// WMED and the baseline power estimates.
    Fig3Cold,
    /// Library-mode sweep under a distribution the donor cache never saw,
    /// its warm replay and a GC pass over a copy of the donor.
    LibraryReuse,
    /// The wide multiplier grid on the `symbolic` backend.
    WideSymbolic,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::Fig3Cold, Workload::LibraryReuse, Workload::WideSymbolic];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Cold => "fig3_cold",
            Workload::LibraryReuse => "library_reuse",
            Workload::WideSymbolic => "wide_symbolic",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The evaluator backend the workload's sweeps run on.
    #[must_use]
    pub fn backend(self) -> EvalBackend {
        match self {
            Workload::WideSymbolic => EvalBackend::Symbolic,
            Workload::Fig3Cold | Workload::LibraryReuse => EvalBackend::BitParallel,
        }
    }
}

/// How big a workload's grids are: the benchmark runs `Full`; unit tests
/// run `Tiny` copies of the same shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmarked size.
    Full,
    /// Few thresholds and iterations, for tests.
    Tiny,
}

/// `SplitMix64` finalizer: independent input streams from one seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `sweep_wide` grid shape (`apx_bench::wide_sweep_grid`: one
/// six-spike "measured" PMF, thresholds {0, E}, one run, 10 iterations),
/// sized to the benchmark's run length: width [`WIDE_WIDTH`] is still past
/// the enumeration backends' 20-input cap, and the tight budget
/// [`WIDE_THRESHOLD`] keeps the evolved circuit's symbolic `stats` walk
/// close to the exact seed's cost on every seed.
fn wide_grid(threads: usize) -> SweepConfig {
    let mut rng = Xoshiro256::from_seed(0x51DE);
    let mut weights = vec![0.0f64; 1 << WIDE_WIDTH];
    for _ in 0..6 {
        weights[rng.gen_range(1 << WIDE_WIDTH)] += 1.0 + rng.gen_range(15) as f64;
    }
    let pmf = Pmf::from_weights(WIDE_WIDTH, weights).expect("spikes guarantee positive mass");
    let mut cfg = wide_sweep_grid();
    cfg.distributions = vec![SweepDist::new(format!("Dlumpy{WIDE_WIDTH}"), pmf)];
    cfg.flow.width = WIDE_WIDTH;
    cfg.flow.thresholds = vec![0.0, WIDE_THRESHOLD];
    cfg.flow.iterations = WIDE_ITERATIONS;
    cfg.flow.threads = threads;
    cfg
}

/// Everything one run of a workload computes, derived from its seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Worker threads of every pool.
    pub threads: usize,
    /// The timed sweep (cache directory and library are set per rep).
    pub sweep: SweepConfig,
    /// `library_reuse`: the Fig. 3 grid that fills the donor cache under
    /// [`DONOR_SEED`], so no donor key matches a sweep key.
    pub donor: Option<SweepConfig>,
    /// `library_reuse`: the donor tasks GC must keep (its first
    /// distribution's slice of the grid).
    pub live: Option<SweepConfig>,
    /// `fig3_cold`: seed of the baseline power-estimate stream.
    pub baseline_seed: u64,
}

impl Plan {
    /// The plan of `workload` for benchmark seed `seed` on `threads`
    /// workers.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, threads: usize, size: Size) -> Self {
        let tiny = size == Size::Tiny;
        let mut fig3 =
            SweepConfig { distributions: sweep_distributions(), ..SweepConfig::default() };
        fig3.flow.iterations = if tiny { 60 } else { FIG3_ITERATIONS };
        fig3.flow.runs_per_threshold = 1;
        fig3.flow.threads = threads;
        if tiny {
            fig3.flow.thresholds = vec![5e-7, 1e-4, 5e-2];
        }
        let mut sweep = fig3.clone();
        sweep.flow.seed = derive(seed, 1);
        let (mut donor, mut live) = (None, None);
        match workload {
            Workload::Fig3Cold => {}
            Workload::LibraryReuse => {
                let mut d = fig3.clone();
                d.flow.seed = DONOR_SEED;
                d.flow.iterations = if tiny { 60 } else { DONOR_ITERATIONS };
                let mut l = d.clone();
                l.distributions.truncate(1);
                donor = Some(d);
                live = Some(l);
                sweep.distributions = vec![SweepDist::new("Dn", Pmf::normal(8, 64.0, 16.0))];
            }
            Workload::WideSymbolic => {
                sweep = wide_grid(threads);
                sweep.flow.seed = derive(seed, 1);
                if tiny {
                    sweep.flow.iterations = 2;
                }
            }
        }
        Plan { workload, threads, sweep, donor, live, baseline_seed: derive(seed, 3) }
    }

    /// Tasks in the timed sweep's grid.
    #[must_use]
    pub fn tasks(&self) -> usize {
        let f = &self.sweep.flow;
        self.sweep.distributions.len() * f.thresholds.len() * f.runs_per_threshold
    }

    /// The library configuration of the `library_reuse` sweep: the bins'
    /// `APX_LIBRARY=full` defaults (conventional designs, hits taken,
    /// bound pruning and semantic dedup on) over the donor directory.
    #[must_use]
    pub fn library(donor_dir: &Path) -> LibraryConfig {
        LibraryConfig {
            dir: Some(donor_dir.to_path_buf()),
            conventional: true,
            ..LibraryConfig::default()
        }
    }

    /// The GC policy of the `library_reuse` timed phase: keep the live
    /// slice of the donor grid plus the Pareto front under the sweep's
    /// distributions.
    #[must_use]
    pub fn gc_config(&self) -> GcConfig {
        GcConfig {
            keep: self.live.as_ref().map(grid_keys).unwrap_or_default().into_iter().collect(),
            distributions: self.sweep.distributions.iter().map(|d| d.pmf.clone()).collect(),
            threads: self.threads,
            tmp_ttl: Duration::ZERO,
            ..GcConfig::default()
        }
    }
}

/// The directories one rep works in.
#[derive(Debug, Clone)]
pub struct RepDirs {
    /// Fresh, empty checkpoint directory of the timed sweep.
    pub cache: PathBuf,
    /// `library_reuse`: the pristine donor cache the library scans.
    pub donor: Option<PathBuf>,
    /// `library_reuse`: this rep's copy of the donor, for GC.
    pub gc: Option<PathBuf>,
}

/// What a workload's timed phase produced — the digest and the output
/// checks read only this.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The timed sweep.
    pub sweep: SweepResult,
    /// `library_reuse`: the warm replay of the same grid.
    pub warm: Option<SweepResult>,
    /// `fig3_cold`: per best circuit, its WMED under every distribution;
    /// then per baseline, its WMED under every distribution and its
    /// power under `Du`.
    pub extras: Vec<f64>,
    /// `library_reuse`: the GC pass over the donor copy.
    pub gc: Option<GcReport>,
}

impl RunOutput {
    /// CGP fitness evaluations the timed phase computed.
    #[must_use]
    pub fn computed_evaluations(&self) -> u64 {
        self.sweep.stats.computed_evaluations
            + self.warm.as_ref().map_or(0, |w| w.stats.computed_evaluations)
    }

    /// Operations attempted: sweep tasks and GC passes.
    #[must_use]
    pub fn operations(&self) -> usize {
        self.sweep.stats.tasks
            + self.warm.as_ref().map_or(0, |w| w.stats.tasks)
            + usize::from(self.gc.is_some())
    }
}

/// The `fig3_pareto` post-processing after the sweep: every best
/// circuit's WMED under all three distributions, and the truncated and
/// broken-array baselines' WMED plus their power under `Du`.
pub fn fig3_extras<P: Probe>(probe: &mut P, plan: &Plan, result: &SweepResult) -> Vec<f64> {
    let evaluators = &result.evaluators;
    let mut out = Vec::new();
    for di in 0..plan.sweep.distributions.len() {
        for m in result.best_per_threshold(di) {
            for e in evaluators {
                out.push(probe.span("metrics.wmed", |_| e.wmed(&m.netlist)));
            }
        }
    }
    let tech = TechLibrary::nangate45();
    let uniform = &plan.sweep.distributions[2].pmf;
    let mut rng = Xoshiro256::from_seed(plan.baseline_seed);
    let truncated = (1..=12u32).map(|k| apx_arith::truncated_multiplier(8, k));
    let broken =
        [(8u32, 2u32), (8, 4), (8, 6), (8, 8), (8, 10), (7, 4), (7, 8), (6, 6), (6, 10), (5, 8)]
            .into_iter()
            .map(|(h, v)| apx_arith::broken_array_multiplier(8, h, v));
    for netlist in truncated.chain(broken) {
        for e in evaluators {
            out.push(probe.span("metrics.wmed", |_| e.wmed(&netlist)));
        }
        let est = probe.span("techlib.power", |_| {
            estimate_under_pmf(&netlist, &tech, uniform, DEFAULT_CLOCK_MHZ, 32, &mut rng)
        });
        out.push(est.power_mw());
    }
    out
}

/// The untraced timed phase: exactly the public calls a user's run makes.
///
/// # Errors
///
/// Describes a sweep or GC failure.
pub fn run_untraced(plan: &Plan, dirs: &RepDirs) -> Result<RunOutput, String> {
    let mut cfg = plan.sweep.clone();
    cfg.cache_dir = Some(dirs.cache.clone());
    match plan.workload {
        Workload::Fig3Cold => {
            let sweep = run_sweep(&cfg).map_err(|e| e.to_string())?;
            let extras = fig3_extras(&mut crate::trace::NoTrace, plan, &sweep);
            Ok(RunOutput { sweep, warm: None, extras, gc: None })
        }
        Workload::LibraryReuse => {
            let donor = dirs.donor.as_ref().ok_or("library_reuse needs a donor")?;
            let gc_dir = dirs.gc.as_ref().ok_or("library_reuse needs a GC copy")?;
            cfg.library = Some(Plan::library(donor));
            let sweep = run_sweep(&cfg).map_err(|e| e.to_string())?;
            let warm = run_sweep(&cfg).map_err(|e| e.to_string())?;
            let gc = gc_cache_dir(gc_dir, &plan.gc_config()).map_err(|e| e.to_string())?;
            Ok(RunOutput { sweep, warm: Some(warm), extras: Vec::new(), gc: Some(gc) })
        }
        Workload::WideSymbolic => {
            cfg.cache_dir = None;
            let sweep = run_sweep(&cfg).map_err(|e| e.to_string())?;
            Ok(RunOutput { sweep, warm: None, extras: Vec::new(), gc: None })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig3"), None);
    }

    #[test]
    fn inputs_derive_from_the_seed_only() {
        let a = Plan::new(Workload::LibraryReuse, 7, 2, Size::Full);
        let b = Plan::new(Workload::LibraryReuse, 7, 1, Size::Full);
        assert_eq!(a.sweep.flow.seed, b.sweep.flow.seed);
        assert_eq!(a.sweep.distributions, b.sweep.distributions);
        let donor = a.donor.expect("library_reuse has a donor");
        assert_ne!(donor.flow.seed, a.sweep.flow.seed, "no donor key may match a sweep key");
        assert_ne!(
            Plan::new(Workload::Fig3Cold, 8, 2, Size::Full).sweep.flow.seed,
            a.sweep.flow.seed
        );
        let fig3 = Plan::new(Workload::Fig3Cold, 7, 2, Size::Full).sweep;
        assert_eq!((fig3.distributions.len(), fig3.flow.thresholds.len()), (3, 14));
        let wide = Plan::new(Workload::WideSymbolic, 7, 2, Size::Full).sweep;
        assert_eq!((wide.flow.width, wide.flow.iterations), (WIDE_WIDTH, WIDE_ITERATIONS));
    }
}
