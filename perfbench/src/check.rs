//! Output checks and the result digest.
//!
//! The digest covers everything a workload's timed phase returns that a
//! user could see — entry chromosomes, `ErrorStats` and estimate f64 bits
//! in task order, the sweep counters, the Fig. 3 post-processing values
//! and the GC report — so two runs with equal digests did the same work
//! with the same results.

use crate::workload::{Plan, RepDirs, RunOutput, Workload};
use apx_core::cache::{cache_dir_stats, SweepCache};
use apx_core::{grid_keys, SweepEntry, SweepResult};
use apx_metrics::{CircuitEvaluator, ErrorStats};
use apx_techlib::{area_of, CircuitEstimate, TechLibrary};
use std::fmt::Write as _;

/// The benchmark seed whose result digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned digests of the default seed, per workload. Any change to what
/// a workload computes — a different chromosome, one flipped bit of a
/// statistic or estimate, a changed counter — changes its digest.
#[must_use]
pub fn pinned_digest(workload: Workload) -> &'static str {
    match workload {
        Workload::Fig3Cold => "a84663ca5f2544be02e5fbe2644a9583",
        Workload::LibraryReuse => "4ea0bbbfe65d2a830c2a490dd14354a8",
        Workload::WideSymbolic => "09a96bd223081f002d1f9dc7b9a1b911",
    }
}

fn push_stats(s: &mut String, st: &ErrorStats) {
    for v in [st.med, st.wmed, st.wce, st.error_rate, st.mred] {
        let _ = write!(s, " {:016x}", v.to_bits());
    }
    let _ = write!(s, " {}", st.max_abs_error);
}

fn push_estimate(s: &mut String, e: &CircuitEstimate) {
    for v in [e.area_um2, e.delay_ns, e.leakage_uw, e.dynamic_uw, e.clock_mhz] {
        let _ = write!(s, " {:016x}", v.to_bits());
    }
}

fn push_sweep(s: &mut String, r: &SweepResult) {
    let st = &r.stats;
    let _ = writeln!(
        s,
        "sweep tasks {} hits {} misses {} lib {} seeded {} pruned {} dups {} evals {} {}",
        st.tasks,
        st.cache_hits,
        st.cache_misses,
        st.library_hits,
        st.seeded_evolutions,
        st.library_pruned,
        st.library_semantic_dups,
        st.total_evaluations,
        st.computed_evaluations
    );
    for SweepEntry { dist, circuit: m, .. } in &r.entries {
        let _ = write!(
            s,
            "{dist} {} {:016x} {} {}",
            m.name,
            m.threshold.to_bits(),
            m.run,
            m.evaluations
        );
        push_stats(s, &m.stats);
        push_estimate(s, &m.estimate);
        let _ = writeln!(s, "\n{}", m.chromosome.to_text());
    }
    for e in &r.seed_estimates {
        push_estimate(s, e);
    }
    s.push('\n');
}

/// FNV-1a 64 over `bytes` from `basis`.
fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    bytes.iter().fold(basis, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The 128-bit result digest of one timed phase, as 32 hex digits.
#[must_use]
pub fn digest(out: &RunOutput) -> String {
    let mut s = String::new();
    push_sweep(&mut s, &out.sweep);
    if let Some(w) = &out.warm {
        push_sweep(&mut s, w);
    }
    for v in &out.extras {
        let _ = write!(s, " {:016x}", v.to_bits());
    }
    if let Some(g) = &out.gc {
        let _ = write!(
            s,
            "\ngc {} {} {} {} {} {} {}",
            g.entries_before,
            g.kept_live,
            g.kept_pareto,
            g.evicted,
            g.corrupt_removed,
            g.tmp_removed,
            g.collapsed
        );
    }
    let basis = 0xcbf2_9ce4_8422_2325;
    format!(
        "{:016x}{:016x}",
        fnv1a64(s.as_bytes(), basis),
        fnv1a64(s.as_bytes(), basis ^ 0x9E37_79B9_7F4A_7C15)
    )
}

/// Outcome of the output checks: how many ran and what failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn stats_bits(s: &ErrorStats) -> [u64; 6] {
    [
        s.med.to_bits(),
        s.wmed.to_bits(),
        s.wce.to_bits(),
        s.error_rate.to_bits(),
        s.mred.to_bits(),
        s.max_abs_error as u64,
    ]
}

/// A fresh evaluator for distribution `di` of the timed sweep, on the
/// workload's backend: the checks never reuse the sweep's own.
fn fresh_evaluator(plan: &Plan, di: usize) -> Result<CircuitEvaluator, String> {
    let f = &plan.sweep.flow;
    CircuitEvaluator::for_operator(f.operator, f.width, f.signed, &plan.sweep.distributions[di].pmf)
        .map_err(|e| e.to_string())
}

/// Checks every entry of a sweep against a fresh re-score: its stats
/// must equal the stored ones bit for bit and meet the threshold,
/// threshold-0 entries must be exact, and library hits must be strictly
/// cheaper than the exact seed.
fn check_sweep(checks: &mut Checks, plan: &Plan, r: &SweepResult) {
    let tech = TechLibrary::nangate45();
    let seed_area = area_of(&r.seed_netlist, &tech);
    for di in 0..plan.sweep.distributions.len() {
        let entries: Vec<&SweepEntry> = r.entries_for(di).collect();
        let evaluator = match fresh_evaluator(plan, di) {
            Ok(e) => e,
            Err(e) => {
                checks.expect(false, || format!("fresh evaluator {di}: {e}"));
                continue;
            }
        };
        let netlists: Vec<_> = entries.iter().map(|e| e.circuit.netlist.clone()).collect();
        let rescored = evaluator.stats_batch(&netlists, plan.threads);
        for (e, fresh) in entries.iter().zip(&rescored) {
            let m = &e.circuit;
            checks.expect(stats_bits(fresh) == stats_bits(&m.stats), || {
                format!("{} re-scores to {fresh:?}, stored {:?}", m.name, m.stats)
            });
            checks.expect(m.stats.wmed <= m.threshold, || {
                format!("{} WMED {} over its threshold {}", m.name, m.stats.wmed, m.threshold)
            });
            if m.threshold == 0.0 {
                checks.expect(m.stats.wmed == 0.0 && m.stats.max_abs_error == 0, || {
                    format!("threshold-0 entry {} is not exact", m.name)
                });
            }
        }
    }
    if plan.workload == Workload::LibraryReuse {
        // A library hit is the only way a thresholded task ends with zero
        // evaluations (the donor shares no key with this grid).
        let hits: Vec<&SweepEntry> = r
            .entries
            .iter()
            .filter(|e| e.circuit.evaluations == 0 && e.circuit.threshold > 0.0)
            .collect();
        checks.expect(hits.len() == r.stats.library_hits, || {
            format!(
                "{} zero-evaluation entries but {} library hits",
                hits.len(),
                r.stats.library_hits
            )
        });
        for e in hits {
            let area = area_of(&e.circuit.netlist, &tech);
            checks.expect(area < seed_area, || {
                format!(
                    "library hit {} area {area} does not beat the seed's {seed_area}",
                    e.circuit.name
                )
            });
        }
    }
}

/// Runs every output check of one timed phase.
#[must_use]
pub fn check_output(plan: &Plan, out: &RunOutput, dirs: &RepDirs) -> Checks {
    let mut checks = Checks::default();
    check_sweep(&mut checks, plan, &out.sweep);
    let st = &out.sweep.stats;
    checks.expect(st.computed_evaluations > 0, || "the timed sweep evolved nothing".into());
    if plan.workload == Workload::Fig3Cold {
        checks.expect(st.cache_hits == 0 && st.cache_misses == st.tasks, || {
            format!("cold run was not cold: {st:?}")
        });
        let cache = SweepCache::new(&dirs.cache);
        let keys = grid_keys(&plan.sweep);
        checks.expect(
            keys.iter().all(|&k| cache.load(k).is_some())
                && cache_dir_stats(&dirs.cache).entries == keys.len(),
            || "the cold run did not checkpoint exactly its grid".into(),
        );
        let d = out.sweep.evaluators.len();
        let want = d * plan.sweep.flow.thresholds.len() * d + 22 * (d + 1);
        checks.expect(out.extras.len() == want && out.extras.iter().all(|v| v.is_finite()), || {
            format!("fig3 post-processing produced {} values, want {want} finite", out.extras.len())
        });
    }
    if let Some(warm) = &out.warm {
        let ws = &warm.stats;
        // Every task replays as a hit, except evolutions a library seed
        // won: by contract the cache does not checkpoint those, so the
        // warm run evolves them again (to the same result).
        checks.expect(
            ws.cache_misses == st.seeded_evolutions
                && ws.cache_hits + ws.library_hits + ws.cache_misses == ws.tasks,
            || format!("warm replay is not all hits: {ws:?}"),
        );
        for (c, w) in out.sweep.entries.iter().zip(&warm.entries) {
            let (c, w) = (&c.circuit, &w.circuit);
            checks.expect(
                c.chromosome == w.chromosome
                    && stats_bits(&c.stats) == stats_bits(&w.stats)
                    && c.estimate == w.estimate,
                || format!("warm replay of {} differs from the cold result", c.name),
            );
        }
    }
    if let (Some(report), Some(dir), Some(live)) = (&out.gc, &dirs.gc, &plan.live) {
        let cache = SweepCache::new(dir);
        let keys = grid_keys(live);
        checks.expect(keys.iter().all(|&k| cache.load(k).is_some()), || {
            "GC deleted a live key".into()
        });
        checks.expect(report.kept() == cache_dir_stats(dir).entries, || {
            format!(
                "GC reports {} kept, directory holds {}",
                report.kept(),
                cache_dir_stats(dir).entries
            )
        });
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_untraced, Size};
    use std::path::PathBuf;

    /// A fresh per-test directory set (the donor filled when the plan has
    /// one).
    fn dirs(plan: &Plan, tag: &str) -> RepDirs {
        let root = std::env::temp_dir().join(format!("perfbench_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let donor = plan.donor.as_ref().map(|d| {
            let dir = root.join("donor");
            let mut cfg = d.clone();
            cfg.cache_dir = Some(dir.clone());
            apx_core::run_sweep(&cfg).expect("donor sweep");
            dir
        });
        let gc = donor.as_ref().map(|d| {
            let gc = root.join("gc");
            std::fs::create_dir_all(&gc).unwrap();
            for f in std::fs::read_dir(d).unwrap() {
                let f = f.unwrap();
                std::fs::copy(f.path(), gc.join(f.file_name())).unwrap();
            }
            gc
        });
        RepDirs { cache: root.join("cache"), donor, gc }
    }

    fn digest_on(workload: Workload, threads: usize, traced: bool) -> (String, Vec<String>) {
        let plan = Plan::new(workload, 5, threads, Size::Tiny);
        let tag = format!("{}_{threads}_{traced}", workload.name());
        let d = dirs(&plan, &tag);
        let out = if traced {
            crate::traced::run_traced(&plan, &d).expect("traced run").out
        } else {
            run_untraced(&plan, &d).expect("untraced run")
        };
        let checks = check_output(&plan, &out, &d);
        let root: PathBuf = d.cache.parent().unwrap().to_path_buf();
        let _ = std::fs::remove_dir_all(root);
        (digest(&out), checks.failures)
    }

    #[test]
    fn digest_is_stable_across_thread_counts_and_tracing() {
        for workload in Workload::ALL {
            // As `main` does: the library reads the backend from the
            // environment. Every backend is bit-identical where several
            // apply, so concurrently running tests cannot be affected.
            std::env::set_var(apx_metrics::EvalBackend::ENV_VAR, workload.backend().name());
            let (one, failures) = digest_on(workload, 1, false);
            assert!(failures.is_empty(), "{}: {failures:?}", workload.name());
            let (two, _) = digest_on(workload, 2, false);
            assert_eq!(one, two, "{}: 1 vs 2 threads", workload.name());
            let (traced, failures) = digest_on(workload, 2, true);
            assert!(failures.is_empty(), "{}: {failures:?}", workload.name());
            assert_eq!(one, traced, "{}: traced vs untraced", workload.name());
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let basis = 0xcbf2_9ce4_8422_2325;
        assert_eq!(fnv1a64(b"", basis), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a", basis), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar", basis), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_failed_check_is_recorded_with_its_reason() {
        let mut c = Checks::default();
        c.expect(true, || unreachable!());
        c.expect(false, || "boom".into());
        assert_eq!(c.attempted, 2);
        assert_eq!(c.failures, ["boom"]);
    }
}
