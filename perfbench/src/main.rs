//! `perfbench`: the repository benchmark (see `README.md` beside this
//! package for the workloads, the metrics and how they interact).
//!
//! ```text
//! perfbench --workload <fig3_cold|library_reuse|wide_symbolic>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run repeats the workload's timed phase until `--seconds` have
//! passed (at least once), times a reference kernel between reps (see
//! `calibrate`), checks the first rep's outputs, requires every
//! later rep (and, with `--trace 1`, every traced rep) to reproduce its
//! result digest, and prints one JSON result line last: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`.

mod calibrate;
mod check;
mod report;
mod trace;
mod traced;
mod workload;

use report::{median, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Plan, RepDirs, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <fig3_cold|library_reuse|wide_symbolic> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-process work directory under the current directory, removed
/// when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = Path::new(".bench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the shared parent only when no other run uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let read = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for f in read {
        let f = f.map_err(|e| e.to_string())?;
        std::fs::copy(f.path(), to.join(f.file_name()))
            .map_err(|e| format!("copy {}: {e}", f.path().display()))?;
    }
    Ok(())
}

/// One-time preparation: `library_reuse` fills its donor cache.
fn prepare(plan: &Plan, work: &WorkDir) -> Result<Option<PathBuf>, String> {
    let Some(donor) = &plan.donor else { return Ok(None) };
    let dir = work.0.join("donor");
    let mut cfg = donor.clone();
    cfg.cache_dir = Some(dir.clone());
    apx_core::run_sweep(&cfg).map_err(|e| format!("donor sweep: {e}"))?;
    Ok(Some(dir))
}

/// Per-rep set-up: fresh directories and, for `library_reuse`, this
/// rep's copy of the donor for GC.
fn setup_rep(work: &WorkDir, tag: &str, donor: Option<&PathBuf>) -> Result<RepDirs, String> {
    let cache = work.0.join(format!("{tag}_cache"));
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).map_err(|e| format!("create {}: {e}", cache.display()))?;
    let gc = match donor {
        Some(d) => {
            let gc = work.0.join(format!("{tag}_gc"));
            let _ = std::fs::remove_dir_all(&gc);
            copy_dir(d, &gc)?;
            Some(gc)
        }
        None => None,
    };
    Ok(RepDirs { cache, donor: donor.cloned(), gc })
}

fn cleanup_rep(dirs: &RepDirs) {
    let _ = std::fs::remove_dir_all(&dirs.cache);
    if let Some(gc) = &dirs.gc {
        let _ = std::fs::remove_dir_all(gc);
    }
}

/// Everything a run accumulates over its reps.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wall_s: Vec<f64>,
    /// The rep number of each `wall_s` sample.
    wall_rep: Vec<usize>,
    setup_s: Vec<f64>,
    /// CGP fitness evaluations of one rep (every rep computes the same).
    evaluations: u64,
    reference_s: Vec<f64>,
    traced_wall_s: Vec<f64>,
    layers: Vec<Vec<Metric>>,
    digest: Option<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, why: &str) {
        self.attempted += n;
        self.failed += n;
        eprintln!("perfbench: FAILED: {why}");
    }

    /// Requires `digest` to equal the run's first digest (one check).
    fn same_digest(&mut self, digest: String, what: &str) {
        self.attempted += 1;
        match &self.digest {
            None => self.digest = Some(digest),
            Some(first) if *first == digest => {}
            Some(first) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED: {what} digest {digest} differs from the first rep's {first}");
            }
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // The reference kernel runs on as many threads as every pool.
    let mut kernel = calibrate::Reference::new(nproc);
    // The one-time set-up is bracketed by kernel timings of its own: the
    // run's median kernel time is measured later, under other load.
    let before_prepare = kernel.time_s();
    let started = Instant::now();
    let plan = Plan::new(args.workload, args.seed, nproc, Size::Full);
    let flow = &plan.sweep.flow;
    println!(
        "conditions: {{\"workload\": \"{}\", \"nproc\": {}, \"threads\": {}, \"backend\": \"{}\", \
         \"operator\": \"{}\", \"width\": {}, \"iterations\": {}, \"seed\": {}, \"master_seed\": {}, \
         \"seconds\": {}, \"trace\": {}}}",
        args.workload.name(),
        nproc,
        plan.threads,
        args.workload.backend().name(),
        flow.operator.name(),
        flow.width,
        flow.iterations,
        args.seed,
        flow.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let work = WorkDir::create()?;
    let donor = prepare(&plan, &work)?;
    let prepare_s = started.elapsed().as_secs_f64();
    let mut t = Tally::default();
    // The window counts set-up and timed phases only: output checks run
    // outside it, so every workload gets the same measuring time. A rep
    // starts only if the costliest rep so far would still end inside the
    // window, so a run never overshoots it by a rep. The reference kernel
    // runs before every rep and once after the last.
    let mut measured_s = 0.0;
    let mut rep_cost_s: f64 = 0.0;
    let mut rep = 0usize;
    while rep == 0 || measured_s + rep_cost_s <= args.seconds {
        let rep_start_s = measured_s;
        let reference = kernel.time_s();
        t.reference_s.push(reference);
        measured_s += reference;
        let start = Instant::now();
        let dirs = setup_rep(&work, "run", donor.as_ref())?;
        let setup = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let result = workload::run_untraced(&plan, &dirs);
        let wall = start.elapsed().as_secs_f64();
        t.setup_s.push(setup);
        measured_s += setup + wall;
        match result {
            Ok(out) => {
                t.attempted += out.operations() as u64;
                t.wall_s.push(wall);
                t.wall_rep.push(rep);
                t.evaluations = out.computed_evaluations();
                let digest = check::digest(&out);
                if rep == 0 {
                    let checks = check::check_output(&plan, &out, &dirs);
                    t.attempted += checks.attempted as u64;
                    t.failed += checks.failures.len() as u64;
                    for f in &checks.failures {
                        eprintln!("perfbench: FAILED check: {f}");
                    }
                    println!(
                        "rep 0: {} checks, {} failed, digest {digest}",
                        checks.attempted,
                        checks.failures.len()
                    );
                }
                t.same_digest(digest, "untraced");
            }
            Err(e) => t.fail(plan.tasks() as u64, &e),
        }
        cleanup_rep(&dirs);
        if args.trace {
            let dirs = setup_rep(&work, "traced", donor.as_ref())?;
            let start = Instant::now();
            let result = traced::run_traced(&plan, &dirs);
            let wall = start.elapsed().as_secs_f64();
            measured_s += wall;
            match result {
                Ok(run) => {
                    t.traced_wall_s.push(wall);
                    t.layers.push(traced::layer_metrics(&run, wall));
                    t.same_digest(check::digest(&run.out), "traced");
                }
                Err(e) => t.fail(1, &e),
            }
            cleanup_rep(&dirs);
        }
        println!(
            "rep {rep}: wall {:.4} s{}",
            t.wall_s.last().copied().unwrap_or(f64::NAN),
            match t.traced_wall_s.last() {
                Some(w) if args.trace => format!(", traced {w:.4} s"),
                _ => String::new(),
            }
        );
        rep_cost_s = rep_cost_s.max(measured_s - rep_start_s);
        rep += 1;
    }
    t.reference_s.push(kernel.time_s());
    let reference = median(&t.reference_s);
    // `t.reference_s[0]` ran right after the one-time set-up.
    let prepare_reference = (before_prepare + t.reference_s[0]) / 2.0;
    let setup_s = calibrate::to_reference_s(prepare_s, prepare_reference)
        + calibrate::to_reference_s(median(&t.setup_s), reference);
    let scaled = calibrate::scale_reps(&t.wall_rep, &t.wall_s, &t.reference_s);
    let wall_s = median(&scaled);
    let pinned = check::pinned_digest(args.workload);
    if args.seed == check::DEFAULT_SEED {
        t.attempted += 1;
        if t.digest.as_deref() != Some(pinned) {
            t.failed += 1;
            eprintln!(
                "perfbench: FAILED: result digest {} of the default seed differs from the pinned {pinned}",
                t.digest.as_deref().unwrap_or("(none)")
            );
        }
    }
    let attempted = t.attempted.max(1);
    let metrics: Vec<Metric> = if args.trace {
        let mut names: Vec<Metric> = t.layers.first().cloned().unwrap_or_default();
        for (i, m) in names.iter_mut().enumerate() {
            let values: Vec<f64> = t.layers.iter().map(|l| l[i].value).collect();
            m.value = median(&values);
        }
        names.push(Metric {
            name: "trace.overhead_ratio",
            value: report::ratio(median(&t.traced_wall_s), median(&t.wall_s)) - 1.0,
            unit: "ratio",
        });
        names
    } else {
        vec![
            Metric { name: "wall_s", value: wall_s, unit: "s" },
            Metric { name: "setup_s", value: setup_s, unit: "s" },
            Metric {
                name: "evals_per_s",
                value: report::ratio(t.evaluations as f64, wall_s),
                unit: "1/s",
            },
            Metric { name: "peak_rss_mb", value: report::peak_rss_mib(), unit: "MiB" },
            Metric {
                name: "ok_ratio",
                value: report::ratio((attempted - t.failed) as f64, attempted as f64),
                unit: "ratio",
            },
        ]
    };
    println!("reps: {rep}, samples wall_s {:?}", t.wall_s);
    println!("reference-scaled wall_s samples {scaled:?}");
    println!(
        "raw (seconds as measured): wall_s median {:.4}, setup_s {:.6}; reference kernel around set-up \
         {prepare_reference:.4} s, median {reference:.4} s (nominal {}), samples {:?}",
        median(&t.wall_s),
        prepare_s + median(&t.setup_s),
        calibrate::NOMINAL_S,
        t.reference_s
    );
    println!("{}", report::result_json(t.failed == 0, attempted, t.failed, &metrics));
    Ok(if t.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The library reads the evaluator backend from the environment; pin it
    // before any thread starts so an inherited value cannot change the
    // workload.
    std::env::set_var(apx_metrics::EvalBackend::ENV_VAR, args.workload.backend().name());
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
