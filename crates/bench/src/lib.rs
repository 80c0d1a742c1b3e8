#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apx_arith::Operator;
use apx_core::nn_flow::{prepare_case, CaseConfig, CaseKind, CaseStudy};
use apx_core::report::TextTable;
use apx_core::{pareto_indices, run_sweep};
use apx_core::{FlowConfig, LibraryConfig, Shard, SweepConfig, SweepEntry, SweepStats};
use apx_dist::Pmf;
use apx_gates::Netlist;
use apx_rng::Xoshiro256;
use apx_techlib::{estimate_under_pmf, TechLibrary, DEFAULT_CLOCK_MHZ};
use std::path::{Path, PathBuf};

/// Reads an integer environment knob. Unset or empty (after trimming)
/// falls back to `default`.
///
/// # Panics
///
/// Panics on a malformed non-empty value. Falling back silently would let
/// `APX_ITERS=2k` quietly run the 2000-iteration default — a typo must
/// not change the computation (the strict-`APX_SHARD` rationale).
#[must_use]
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) if v.trim().is_empty() => default,
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            panic!(
                "{name}=`{v}` is not an integer — refusing to fall back to the default \
                 ({default}); fix or unset the variable"
            )
        }),
    }
}

/// Reads a `usize` environment knob.
///
/// # Panics
///
/// Panics on a malformed non-empty value, like [`env_u64`].
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    env_u64(name, default as u64) as usize
}

/// CGP generations per run (`APX_ITERS`).
#[must_use]
pub fn iterations() -> u64 {
    env_u64("APX_ITERS", 2_000)
}

/// Independent runs per error level (`APX_RUNS`).
#[must_use]
pub fn runs(default: usize) -> usize {
    env_usize("APX_RUNS", default)
}

/// The paper's D1: a normal distribution centred mid-range (Fig. 2 left).
#[must_use]
pub fn d1() -> Pmf {
    Pmf::normal(8, 127.0, 32.0)
}

/// The paper's D2: a half-normal distribution favouring small operands
/// (Fig. 2 right).
#[must_use]
pub fn d2() -> Pmf {
    Pmf::half_normal(8, 48.0)
}

/// The uniform reference distribution Du.
#[must_use]
pub fn du() -> Pmf {
    Pmf::uniform(8)
}

/// The paper's three sweep distributions as named [`run_sweep`] inputs,
/// in panel order `[D1, D2, Du]` (index 2 is the uniform reference).
///
/// [`run_sweep`]: apx_core::run_sweep
#[must_use]
pub fn sweep_distributions() -> Vec<apx_core::SweepDist> {
    vec![
        apx_core::SweepDist::new("D1", d1()),
        apx_core::SweepDist::new("D2", d2()),
        apx_core::SweepDist::new("Du", du()),
    ]
}

/// Directory for CSV mirrors of the printed tables.
#[must_use]
pub fn results_dir() -> PathBuf {
    // crates/bench -> workspace root -> results/
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Directory for the CSV mirror of `sweep_smoke` and `sweep_wide`
/// (`APX_OUT_DIR`): unset or empty falls back to [`results_dir`], so
/// concurrent tests can each point a run at a directory of their own.
#[must_use]
pub fn out_dir() -> PathBuf {
    std::env::var("APX_OUT_DIR")
        .ok()
        .filter(|v| !v.is_empty())
        .map_or_else(results_dir, PathBuf::from)
}

/// The CSV mirror of a sweep smoke binary, one row per entry:
/// `dist,name,threshold,wmed,mred,area_um2,power_mw`. It is derived
/// purely from the entries, so a warm, sharded, resumed or orchestrated
/// run writes the same bytes as a cold unsharded one. `mred` is finite at
/// exhaustive widths and `n/a` past them ([`metric_cell`]).
#[must_use]
pub fn sweep_entries_table(entries: &[SweepEntry]) -> TextTable {
    let mut csv =
        TextTable::new(vec!["dist", "name", "threshold", "wmed", "mred", "area_um2", "power_mw"]);
    for e in entries {
        let m = &e.circuit;
        csv.row(vec![
            e.dist.clone(),
            m.name.clone(),
            format!("{:e}", m.threshold),
            format!("{:.9e}", m.stats.wmed),
            metric_cell(m.stats.mred),
            format!("{:.6}", m.estimate.area_um2),
            format!("{:.6}", m.estimate.power_mw()),
        ]);
    }
    csv
}

/// The sweep result cache directory for the figure binaries
/// (`APX_CACHE_DIR`): defaults to `results/cache`; an empty value or
/// `off` disables caching.
#[must_use]
pub fn cache_dir() -> Option<PathBuf> {
    match std::env::var("APX_CACHE_DIR") {
        Ok(v) if v.is_empty() || v == "off" => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => Some(results_dir().join("cache")),
    }
}

/// Parses an `APX_SHARD`-style `i/n` split.
///
/// # Errors
///
/// Describes the defect (shape, parse, `index >= count`).
pub fn parse_shard(spec: &str) -> Result<Shard, String> {
    let (i, n) = spec.split_once('/').ok_or_else(|| format!("`{spec}`: expected `i/n`"))?;
    let index: usize = i.trim().parse().map_err(|_| format!("`{spec}`: bad shard index"))?;
    let count: usize = n.trim().parse().map_err(|_| format!("`{spec}`: bad shard count"))?;
    if count == 0 || index >= count {
        return Err(format!("`{spec}`: need 0 <= index < count"));
    }
    Ok(Shard { index, count })
}

/// The shard this process should compute (`APX_SHARD=i/n`), if any.
///
/// # Panics
///
/// Panics on a malformed specification — a typo silently computing the
/// whole grid would defeat the point of sharding. The panic carries
/// [`parse_shard`]'s diagnosis (shape, parse, `index >= count`), not a
/// bare unwrap.
#[must_use]
pub fn shard() -> Option<Shard> {
    std::env::var("APX_SHARD")
        .ok()
        .filter(|v| !v.is_empty())
        .map(|v| parse_shard(&v).unwrap_or_else(|e| panic!("APX_SHARD {e}")))
}

/// Parses an `APX_LIBRARY`-style component-library specification against
/// the process's cache directory:
///
/// * empty or `off` — library mode disabled (`None`);
/// * `on` — harvest `cache_dir` (a warm cache becomes a component
///   library; candidates that meet a task's threshold under the task's
///   distribution are taken without evolution). The directory need not
///   exist yet: a first cold run harvests nothing and creates it;
/// * `full` — `on` plus the conventional [`apx_approxlib`] designs as
///   additional candidates;
/// * anything else — an existing directory to harvest (e.g. another
///   experiment's cache, while this run checkpoints elsewhere or not at
///   all).
///
/// # Errors
///
/// Names the path when an explicit directory does not exist or is not a
/// directory — a typo must not quietly turn a library run into a cold one.
pub fn parse_library(
    spec: &str,
    cache_dir: Option<PathBuf>,
) -> Result<Option<LibraryConfig>, String> {
    match spec {
        "" | "off" => Ok(None),
        "on" => Ok(Some(LibraryConfig { dir: cache_dir, ..LibraryConfig::default() })),
        "full" => Ok(Some(LibraryConfig {
            dir: cache_dir,
            conventional: true,
            ..LibraryConfig::default()
        })),
        dir if Path::new(dir).is_dir() => {
            Ok(Some(LibraryConfig { dir: Some(PathBuf::from(dir)), ..LibraryConfig::default() }))
        }
        dir => Err(format!(
            "`{dir}`: not a directory (expected `off`, `on`, `full` or a cache directory)"
        )),
    }
}

/// The component-library mode for the figure binaries (`APX_LIBRARY`,
/// resolved against [`cache_dir`]). Defaults to off: library reuse
/// changes which multiplier serves a task (that is its point), so it is
/// strictly opt-in — unlike the exact-replay cache, which is transparent.
///
/// # Panics
///
/// Panics with [`parse_library`]'s diagnosis when the knob names a
/// missing directory, before any sweep starts.
#[must_use]
pub fn library_config() -> Option<LibraryConfig> {
    parse_library(&std::env::var("APX_LIBRARY").unwrap_or_default(), cache_dir())
        .unwrap_or_else(|e| panic!("APX_LIBRARY {e}"))
}

/// Width ceiling for `netlist_lint --seeds` (`APX_SEEDS_MAX_WIDTH`,
/// default 16 — the symbolic backend's own cap, i.e. every supported
/// width). The seed proofs pin one operand per weighted value, so their
/// cost doubles per width bit; CI caps the ladder to stay fast while
/// the uncapped default remains the complete audit.
#[must_use]
pub fn seeds_max_width() -> u32 {
    env_u64("APX_SEEDS_MAX_WIDTH", 16) as u32
}

/// Number of local shard processes the `orchestrate` binary spawns
/// (`APX_ORCH_SHARDS`).
#[must_use]
pub fn orch_shards() -> usize {
    env_usize("APX_ORCH_SHARDS", 2)
}

/// The worker binary the `orchestrate` binary supervises
/// (`APX_ORCH_BIN`). Validated against the known sweep workloads by the
/// orchestrator itself.
#[must_use]
pub fn orch_bin() -> String {
    std::env::var("APX_ORCH_BIN")
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "fig3_pareto".to_owned())
}

/// Relaunch budget per dead shard (`APX_ORCH_RELAUNCHES`).
#[must_use]
pub fn orch_relaunches() -> usize {
    env_usize("APX_ORCH_RELAUNCHES", 2)
}

/// Garbage-collection mode of the `orchestrate` binary (`APX_GC`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcMode {
    /// No collection (the default).
    Off,
    /// Collect after the grid completed and the assembly run succeeded.
    After,
    /// Skip the grid entirely: just collect the directory and exit.
    Only,
}

/// Parses an `APX_GC`-style mode specification.
///
/// # Errors
///
/// Describes the accepted values on anything unrecognized.
pub fn parse_gc_mode(spec: &str) -> Result<GcMode, String> {
    match spec {
        "" | "off" => Ok(GcMode::Off),
        "on" => Ok(GcMode::After),
        "only" => Ok(GcMode::Only),
        other => Err(format!("`{other}`: expected `off`, `on` or `only`")),
    }
}

/// The garbage-collection mode for the `orchestrate` binary (`APX_GC`).
///
/// # Panics
///
/// Panics on an unrecognized value — silently skipping a requested
/// collection would leave the operator believing the directory was
/// curated.
#[must_use]
pub fn gc_mode() -> GcMode {
    parse_gc_mode(&std::env::var("APX_GC").unwrap_or_default())
        .unwrap_or_else(|e| panic!("APX_GC {e}"))
}

/// Minimum age before a writer temp file counts as stale litter for a
/// standalone GC pass (`APX_GC_TMP_TTL_SECS`, default 900 s). The
/// orchestrator's own post-grid pass uses zero instead: every writer it
/// spawned has already exited.
#[must_use]
pub fn gc_tmp_ttl() -> std::time::Duration {
    std::time::Duration::from_secs(env_u64("APX_GC_TMP_TTL_SECS", 900))
}

/// The sweep grid `fig3_pareto` serves, reconstructed from the same
/// environment knobs the binary itself reads (`APX_ITERS`, `APX_RUNS`).
/// One definition keeps the binary, the orchestrator's progress target
/// and the GC pass's live-key set in lockstep.
#[must_use]
pub fn fig3_sweep_grid() -> SweepConfig {
    SweepConfig {
        distributions: sweep_distributions(),
        flow: FlowConfig {
            width: 8,
            signed: false,
            iterations: iterations(),
            runs_per_threshold: runs(1),
            seed: 0xF163,
            ..FlowConfig::default()
        },
        ..SweepConfig::default()
    }
}

/// The sweep grid `fig_adders` serves: the paper's three distributions
/// against unsigned 8-bit approximate *adders* — the same 14-threshold
/// shape as Fig. 3, with [`Operator::Add`] threaded through evaluator,
/// cache and library. Reconstructible here for the same reason as
/// [`fig3_sweep_grid`]: orchestration and GC must agree with the binary
/// on the live key set.
#[must_use]
pub fn fig_adders_sweep_grid() -> SweepConfig {
    SweepConfig {
        distributions: sweep_distributions(),
        flow: FlowConfig {
            operator: Operator::Add,
            width: 8,
            signed: false,
            iterations: iterations(),
            runs_per_threshold: runs(1),
            seed: 0xADD5,
            ..FlowConfig::default()
        },
        ..SweepConfig::default()
    }
}

/// The sweep grid `fig4_heatmaps` serves (one mid-range WMED budget per
/// distribution), under the same knobs as the binary.
#[must_use]
pub fn fig4_sweep_grid() -> SweepConfig {
    SweepConfig {
        distributions: sweep_distributions(),
        flow: FlowConfig {
            width: 8,
            thresholds: vec![2e-3],
            iterations: iterations(),
            seed: 0xF164,
            ..FlowConfig::default()
        },
        ..SweepConfig::default()
    }
}

/// The deliberately tiny 4-bit grid of the `sweep_smoke` binary: 2
/// distributions × 3 thresholds × 2 runs, minutes of debug-profile
/// compute instead of hours. It exists so orchestrator end-to-end tests
/// (spawn, kill, relaunch, assemble, GC) can exercise real shard
/// processes without paying for the 8-bit figure grids.
#[must_use]
pub fn smoke_sweep_grid() -> SweepConfig {
    SweepConfig {
        distributions: vec![
            apx_core::SweepDist::new("Dh", Pmf::half_normal(4, 3.0)),
            apx_core::SweepDist::new("Du", Pmf::uniform(4)),
        ],
        flow: FlowConfig {
            width: 4,
            thresholds: vec![0.0, 0.02, 0.1],
            iterations: env_u64("APX_ITERS", 150),
            runs_per_threshold: 2,
            cols_slack: 20,
            activity_blocks: 8,
            seed: 0x500E,
            ..FlowConfig::default()
        },
        ..SweepConfig::default()
    }
}

/// The width-12 multiplier grid of the `sweep_wide` binary: one
/// measured-lumpy distribution × 2 thresholds × 1 run at a width past
/// full-domain enumeration's 20-input cap (24 netlist inputs), so the
/// width puts it on the bit-parallel backend's streamed row engine. It
/// exists so CI can prove the wide path carries the *whole* sweep
/// pipeline — seeded evolution, bounded scoring, exact stats,
/// activity-based power estimation — past the exhaustive-width wall, not
/// just isolated WMED calls.
#[must_use]
pub fn wide_sweep_grid() -> SweepConfig {
    // A deterministic "measured" histogram: six spikes of random integer
    // mass. Few weighted values keep bounded scoring fast (past the cap
    // its cost scales with the weighted support, never with `2^width`).
    let mut rng = apx_rng::Xoshiro256::from_seed(0x51DE);
    let mut weights = vec![0.0f64; 1 << 12];
    for _ in 0..6 {
        weights[rng.gen_range(1 << 12)] += 1.0 + rng.gen_range(15) as f64;
    }
    SweepConfig {
        distributions: vec![apx_core::SweepDist::new(
            "Dlumpy12",
            Pmf::from_weights(12, weights).expect("spikes guarantee positive mass"),
        )],
        flow: FlowConfig {
            width: 12,
            thresholds: vec![0.0, 1e-3],
            iterations: env_u64("APX_ITERS", 10),
            runs_per_threshold: 1,
            cols_slack: 10,
            activity_blocks: 4,
            seed: 0x51DE,
            ..FlowConfig::default()
        },
        ..SweepConfig::default()
    }
}

/// The statically known sweep grid a worker binary serves, by binary
/// name — `None` for binaries the orchestrator can run but whose grid it
/// cannot reconstruct (`table1_finetune`'s cache keys depend on measured
/// NN weight distributions, so its live set would require training the
/// classifiers here).
#[must_use]
pub fn sweep_grid_of(bin: &str) -> Option<SweepConfig> {
    match bin {
        "fig3_pareto" => Some(fig3_sweep_grid()),
        "fig_adders" => Some(fig_adders_sweep_grid()),
        "fig4_heatmaps" => Some(fig4_sweep_grid()),
        "sweep_smoke" => Some(smoke_sweep_grid()),
        _ => None,
    }
}

/// Renders one error-metric value for a CSV/table cell.
///
/// This is the report-surface half of the wide-width stats contract:
/// past exhaustive widths the per-row engines compute every metric
/// except `mred` exactly, and `mred` is `NaN` by contract
/// ([`apx_metrics::ErrorStats::mred`]). A raw `{:.e}` of that value
/// would print the literal `NaN` into a CSV, which downstream parsers
/// read as a string and plotting scripts silently drop — so finite
/// values render in scientific notation and anything non-finite renders
/// as the explicit `n/a` marker. No emitted CSV may ever carry a
/// literal `NaN`/`inf` token (regression-tested in `bench_json.rs`).
#[must_use]
pub fn metric_cell(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9e}")
    } else {
        "n/a".to_owned()
    }
}

/// The JSON form of the [`metric_cell`] contract: JSON has no `NaN`
/// token at all (the grammar rejects it), so non-finite metric values
/// render as `null` and finite ones as plain numbers.
#[must_use]
pub fn json_metric(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9e}")
    } else {
        "null".to_owned()
    }
}

/// Prints the reuse counters of a sweep in the shared format every
/// figure binary (and the CI smoke greps) rely on — one line per enabled
/// mechanism, nothing when the sweep ran without cache and library.
pub fn print_sweep_counters(cfg: &apx_core::SweepConfig, stats: &SweepStats) {
    println!("evaluator backend: {}", cfg.flow.operator.backend(cfg.flow.width));
    println!("operator: {}", cfg.flow.operator);
    if let Some(dir) = &cfg.cache_dir {
        println!(
            "cache: {} hits, {} misses, {} shard-skipped ({})",
            stats.cache_hits,
            stats.cache_misses,
            stats.shard_skipped,
            dir.display()
        );
    }
    if cfg.library.is_some() {
        println!(
            "library: {} hits, {} seeded evolutions, {} semantic dups",
            stats.library_hits, stats.seeded_evolutions, stats.library_semantic_dups
        );
    }
}

/// One evolved or baseline circuit of a Pareto figure: its WMED under
/// every sweep distribution (in panel order) and its power.
struct ParetoPoint {
    series: String,
    name: String,
    wmed: Vec<f64>,
    power_mw: f64,
}

/// Runs one power-vs-WMED Pareto figure — the shared body of the
/// `fig3_pareto` and `fig_adders` binaries.
///
/// Sweeps the whole (distribution × threshold × run) grid `grid` builds
/// through one [`apx_core::run_sweep`] worker pool — the grid function is
/// shared with the orchestrator ([`sweep_grid_of`]), so supervision and GC
/// always agree on the live key set — with the cache, shard and library
/// knobs applied. Every evolved circuit and every `(series, name,
/// netlist)` baseline is then cross-evaluated under all sweep
/// distributions (reusing the sweep's shared evaluators); baseline power
/// is estimated under the uniform distribution. Prints one table per
/// metric panel with its front census and writes the rows to
/// `results/{csv_name}`. `noun` names the evolved circuits ("multipliers").
///
/// # Panics
///
/// Panics if the sweep fails, the grid lacks the uniform `Du`
/// distribution, or the CSV cannot be written.
pub fn pareto_figure(
    title: &str,
    grid: fn() -> SweepConfig,
    noun: &str,
    baselines: &[(&str, String, Netlist)],
    csv_name: &str,
) {
    let iters = iterations();
    let n_runs = runs(1);
    println!("=== {title}: Pareto fronts (iterations/run = {iters}, runs/level = {n_runs}) ===\n");

    let mut sweep_cfg = grid();
    sweep_cfg.cache_dir = cache_dir();
    sweep_cfg.shard = shard();
    sweep_cfg.library = library_config();
    let result = run_sweep(&sweep_cfg).expect("sweep");
    println!(
        "swept {} tasks on {} threads in {:.2} s ({:.0} evaluations/s)",
        result.stats.tasks,
        result.stats.threads,
        result.stats.wall_seconds,
        result.stats.evaluations_per_second
    );
    print_sweep_counters(&sweep_cfg, &result.stats);
    let dists = &sweep_cfg.distributions;
    let evaluators = &result.evaluators;
    let tech = TechLibrary::nangate45();
    let mut points: Vec<ParetoPoint> = Vec::new();

    for (di, dist) in dists.iter().enumerate() {
        for m in result.best_per_threshold(di) {
            let wmed: Vec<f64> = evaluators.iter().map(|e| e.wmed(&m.netlist)).collect();
            points.push(ParetoPoint {
                series: format!("proposed ({})", dist.name),
                name: m.name.clone(),
                wmed,
                power_mw: m.estimate.power_mw(),
            });
        }
        println!("evolved {} {noun} for {}", result.entries_for(di).count(), dist.name);
    }

    let mut rng = Xoshiro256::from_seed(0xBA5E);
    let uniform =
        &dists.iter().find(|d| d.name == "Du").expect("sweep includes the uniform reference").pmf;
    for (series, name, netlist) in baselines {
        let wmed: Vec<f64> = evaluators.iter().map(|e| e.wmed(netlist)).collect();
        // Baseline power is reported under the uniform distribution, as in
        // the paper's library comparisons.
        let est = estimate_under_pmf(netlist, &tech, uniform, DEFAULT_CLOCK_MHZ, 32, &mut rng);
        points.push(ParetoPoint {
            series: (*series).to_owned(),
            name: name.clone(),
            wmed,
            power_mw: est.power_mw(),
        });
    }

    // One panel per metric.
    let mut csv = TextTable::new(vec!["panel", "series", "name", "wmed_pct", "power_mw"]);
    for (panel, dist) in dists.iter().enumerate() {
        let dist_name = &dist.name;
        println!("\n--- panel WMED_{dist_name} (power [mW] vs error) ---");
        let mut table = TextTable::new(vec!["series", "name", "WMED %", "power mW", "pareto"]);
        let panel_points: Vec<(f64, f64)> =
            points.iter().map(|p| (p.wmed[panel], p.power_mw)).collect();
        let front = pareto_indices(&panel_points);
        for (i, p) in points.iter().enumerate() {
            table.row(vec![
                p.series.clone(),
                p.name.clone(),
                format!("{:.5}", p.wmed[panel] * 100.0),
                format!("{:.4}", p.power_mw),
                if front.contains(&i) { "*".to_owned() } else { String::new() },
            ]);
            csv.row(vec![
                format!("WMED_{dist_name}"),
                p.series.clone(),
                p.name.clone(),
                format!("{:.6}", p.wmed[panel] * 100.0),
                format!("{:.5}", p.power_mw),
            ]);
        }
        println!("{}", table.to_text());
        // Headline check: who owns the front in this panel?
        let proposed_on_front = front
            .iter()
            .filter(|&&i| points[i].series == format!("proposed ({dist_name})"))
            .count();
        println!(
            "pareto points from `proposed ({dist_name})`: {proposed_on_front} of {}",
            front.len()
        );
    }
    let path = results_dir().join(csv_name);
    csv.write_csv(&path).expect("write csv");
    println!("\nCSV written to {}", path.display());
}

/// One measured cell of the wide-width benchmark grid: a
/// (operator, width, backend) combination and the wall time its
/// candidate evaluations took.
#[derive(Debug, Clone)]
pub struct WideCell {
    /// Arithmetic operator evaluated.
    pub op: Operator,
    /// Operand width in bits.
    pub width: u32,
    /// Backend name ([`apx_metrics::EvalBackend::name`]).
    pub backend: &'static str,
    /// Number of full WMED evaluations timed.
    pub evaluations: u64,
    /// Wall time of those evaluations, in seconds.
    pub wall_seconds: f64,
    /// The seed circuit's mean relative error distance under the cell's
    /// PMF — `NaN` past exhaustive widths (the wide-width stats
    /// contract), rendered as JSON `null` via [`json_metric`].
    pub mred: f64,
}

/// Assembles the `results/BENCH_symbolic.json` document from the wide-width
/// benchmark's measured cells.
///
/// `weighted_values` records how many operand encodings carried
/// distribution mass (past the cap every engine's WMED cost scales with
/// that count, not with `2^width`, so the rate is meaningless without
/// it). Rates go
/// through [`SweepStats::rate`], whose clamped denominator keeps a
/// sub-microsecond cell from printing `inf` (not a JSON token) into the
/// perf history.
#[must_use]
pub fn bench_wide_json(weighted_values: usize, cells: &[WideCell]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"op\": \"{}\", \"width\": {}, \"backend\": \"{}\", \"evaluations\": {}, \
                 \"wall_seconds\": {:.6}, \"evaluations_per_second\": {:.3}, \"mred\": {}}}",
                c.op,
                c.width,
                c.backend,
                c.evaluations,
                c.wall_seconds,
                SweepStats::rate(c.evaluations, c.wall_seconds),
                json_metric(c.mred)
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"bench_wide\",\n  \"weighted_values\": {weighted_values},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Prepares the MNIST-like MLP case at bench scale.
#[must_use]
pub fn mlp_case() -> CaseStudy {
    prepare_case(&CaseConfig {
        kind: CaseKind::Mlp { hidden: env_usize("APX_HIDDEN", 48) },
        train_n: env_usize("APX_TRAIN_N", 1_200),
        test_n: env_usize("APX_TEST_N", 300),
        calib_n: 64,
        epochs: env_usize("APX_EPOCHS", 15),
        lr: 0.03,
        seed: 1001,
    })
}

/// Prepares the SVHN-like LeNet case at bench scale (conv nets are ~20×
/// more expensive per sample; defaults are sized accordingly).
#[must_use]
pub fn lenet_case() -> CaseStudy {
    prepare_case(&CaseConfig {
        kind: CaseKind::LeNet,
        train_n: env_usize("APX_TRAIN_N", 500),
        test_n: env_usize("APX_TEST_N", 150),
        calib_n: 32,
        epochs: env_usize("APX_EPOCHS", 8),
        lr: 0.015,
        seed: 2002,
    })
}

/// Fine-tuning iterations (`APX_FT_ITERS`; the paper uses 10).
#[must_use]
pub fn finetune_iters() -> usize {
    env_usize("APX_FT_ITERS", 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The process environment and the panic hook are process-global;
    /// the default test harness is multi-threaded. Every test that calls
    /// `set_var`/`remove_var`, reads a variable another test writes, or
    /// swaps the panic hook must hold this lock — concurrent
    /// getenv/setenv is a data race, and interleaved hook swaps can leave
    /// the silencing no-op hook installed for the rest of the run.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` with the panic hook silenced, returning the panic message
    /// (if any) — `#[should_panic]` can't assert several cases per test.
    /// Callers must hold [`env_lock`].
    fn panic_message_of(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(f);
        std::panic::set_hook(hook);
        result.err().map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_default()
        })
    }

    #[test]
    fn env_knobs_fall_back_to_defaults() {
        let _guard = env_lock();
        assert_eq!(env_u64("APX_DEFINITELY_UNSET_VAR", 7), 7);
        assert!(iterations() > 0);
        // Empty and whitespace-only values count as unset; surrounding
        // whitespace around a valid number is tolerated.
        std::env::set_var("APX_TEST_EMPTY_KNOB", "");
        assert_eq!(env_u64("APX_TEST_EMPTY_KNOB", 9), 9);
        std::env::set_var("APX_TEST_BLANK_KNOB", "  ");
        assert_eq!(env_u64("APX_TEST_BLANK_KNOB", 9), 9);
        std::env::set_var("APX_TEST_PADDED_KNOB", " 123 ");
        assert_eq!(env_u64("APX_TEST_PADDED_KNOB", 9), 123);
        assert_eq!(env_usize("APX_TEST_PADDED_KNOB", 9), 123);
    }

    #[test]
    fn malformed_env_knobs_fail_loudly_not_silently() {
        let _guard = env_lock();
        // Regression: `APX_ITERS=2k` used to quietly run the default 2000
        // iterations. A malformed non-empty value must name the variable
        // and the offending value, never fall back.
        for bad in ["2k", "12.5", "-3", "1_000", "0x10"] {
            std::env::set_var("APX_TEST_BAD_KNOB", bad);
            let msg = panic_message_of(|| {
                let _ = env_u64("APX_TEST_BAD_KNOB", 2_000);
            })
            .unwrap_or_else(|| panic!("`{bad}` must be rejected"));
            assert!(msg.contains("APX_TEST_BAD_KNOB"), "missing variable name: {msg}");
            assert!(msg.contains(bad), "missing offending value: {msg}");
            let msg = panic_message_of(|| {
                let _ = env_usize("APX_TEST_BAD_KNOB", 4);
            })
            .expect("env_usize inherits the strictness");
            assert!(msg.contains("APX_TEST_BAD_KNOB"), "{msg}");
        }
        std::env::remove_var("APX_TEST_BAD_KNOB");
    }

    #[test]
    fn malformed_shard_spec_surfaces_the_parse_diagnosis() {
        let _guard = env_lock();
        // Regression: `.expect("APX_SHARD")` threw away `parse_shard`'s
        // message. The panic must carry the actual defect.
        std::env::set_var("APX_SHARD", "5/4");
        let msg = panic_message_of(|| {
            let _ = shard();
        })
        .expect("out-of-range shard must panic");
        std::env::remove_var("APX_SHARD");
        assert!(msg.contains("APX_SHARD"), "{msg}");
        assert!(msg.contains("`5/4`"), "offending spec missing: {msg}");
        assert!(msg.contains("need 0 <= index < count"), "diagnosis missing: {msg}");
    }

    #[test]
    fn gc_modes_parse_or_explain() {
        assert_eq!(parse_gc_mode(""), Ok(GcMode::Off));
        assert_eq!(parse_gc_mode("off"), Ok(GcMode::Off));
        assert_eq!(parse_gc_mode("on"), Ok(GcMode::After));
        assert_eq!(parse_gc_mode("only"), Ok(GcMode::Only));
        let err = parse_gc_mode("yes").unwrap_err();
        assert!(err.contains("`yes`") && err.contains("only"), "{err}");
    }

    #[test]
    fn orchestratable_grids_are_reconstructible_by_name() {
        // Reads `APX_ITERS`/`APX_RUNS` while other tests may write env.
        let _guard = env_lock();
        let fig3 = sweep_grid_of("fig3_pareto").expect("fig3 grid");
        assert_eq!(fig3.distributions.len(), 3);
        assert_eq!(fig3.flow.thresholds.len(), 14);
        assert_eq!(fig3.flow.seed, 0xF163);
        let fig4 = sweep_grid_of("fig4_heatmaps").expect("fig4 grid");
        assert_eq!(fig4.flow.thresholds, vec![2e-3]);
        let adders = sweep_grid_of("fig_adders").expect("adder grid");
        assert_eq!(adders.flow.operator, Operator::Add);
        assert!(!adders.flow.signed);
        assert_eq!(adders.flow.thresholds.len(), 14, "same threshold ladder as Fig. 3");
        assert_eq!(adders.flow.seed, 0xADD5);
        assert_ne!(
            apx_core::grid_keys(&adders),
            apx_core::grid_keys(&fig3),
            "the adder grid must never collide with the multiplier cache"
        );
        let smoke = sweep_grid_of("sweep_smoke").expect("smoke grid");
        assert_eq!(smoke.flow.width, 4, "the smoke grid must stay cheap");
        assert_eq!(apx_core::grid_keys(&smoke).len(), 12);
        // table1's grid depends on measured weight PMFs: not static.
        assert_eq!(sweep_grid_of("table1_finetune"), None);
        assert_eq!(sweep_grid_of("nonsense"), None);
    }

    #[test]
    fn shard_specs_parse_or_explain() {
        assert_eq!(parse_shard("0/4"), Ok(Shard { index: 0, count: 4 }));
        assert_eq!(parse_shard(" 3 / 4 "), Ok(Shard { index: 3, count: 4 }));
        for bad in ["", "3", "4/4", "5/4", "a/4", "1/b", "1/0", "-1/4"] {
            assert!(parse_shard(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn library_specs_resolve_against_the_cache_dir() {
        // `on`/`full` accept a cache directory that does not exist yet:
        // a first cold run harvests nothing and creates it.
        let cache = Some(PathBuf::from("/tmp/somecache"));
        assert_eq!(parse_library("", cache.clone()), Ok(None));
        assert_eq!(parse_library("off", cache.clone()), Ok(None));
        let on = parse_library("on", cache.clone()).unwrap().unwrap();
        assert_eq!(on.dir, cache);
        assert!(!on.conventional);
        assert!(on.take_hits);
        assert!(on.semantic_dedup, "semantic dedup always runs");
        let full = parse_library("full", cache.clone()).unwrap().unwrap();
        assert_eq!(full.dir, cache);
        assert!(full.conventional);
        let donor = std::env::temp_dir();
        let explicit = parse_library(donor.to_str().unwrap(), None).unwrap().unwrap();
        assert_eq!(explicit.dir, Some(donor));
        assert!(!explicit.conventional);
        // An explicit directory must exist: a typo would otherwise scan as
        // an empty library and evolve every task cold.
        let missing = concat!(env!("CARGO_MANIFEST_DIR"), "/no-such-library-dir");
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        for bad in [missing, file] {
            let err = parse_library(bad, None).unwrap_err();
            assert!(err.contains(bad) && err.contains("not a directory"), "{err}");
        }
        // `on` with caching disabled scans nothing (still a valid mode:
        // bit-identical to off, by the library-mode contract).
        assert_eq!(parse_library("on", None).unwrap().unwrap().dir, None);
    }

    #[test]
    fn missing_library_directory_surfaces_the_path() {
        let _guard = env_lock();
        let missing = concat!(env!("CARGO_MANIFEST_DIR"), "/no-such-library-dir");
        std::env::set_var("APX_LIBRARY", missing);
        let msg = panic_message_of(|| {
            let _ = library_config();
        })
        .expect("a missing library directory must panic");
        std::env::remove_var("APX_LIBRARY");
        assert!(msg.contains("APX_LIBRARY"), "missing knob name: {msg}");
        assert!(msg.contains(missing), "missing path: {msg}");
    }

    #[test]
    fn paper_distributions_have_the_right_shapes() {
        let d1 = d1();
        assert!(d1.prob(127) > d1.prob(20));
        let d2 = d2();
        assert!(d2.prob(0) > d2.prob(128));
        assert_eq!(du().support_size(), 256);
    }
}
