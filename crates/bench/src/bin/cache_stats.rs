//! Maintenance view of a sweep cache / component-library directory.
//!
//! This bin answers "what is in that directory?" before an operator
//! points a library-mode sweep (`APX_LIBRARY`) or a garbage-collection
//! pass (`orchestrate` with `APX_GC`) at it: intact-entry, corrupt-file
//! and orphaned-temp-litter counts, total size, and how the intact
//! entries split per `(operator, width, signedness)` component class.
//! The view is strictly read-only — collection itself lives in
//! `apx_core::cache::gc_cache_dir`.
//!
//! Usage: `cache_stats [dir]` — the directory argument falls back to
//! `APX_CACHE_DIR`, then to the default `results/cache`.
//!
//! With `APX_VERIFY=on` every intact entry is additionally run through
//! the `apx_verify` static lint and the per-diagnostic counts are
//! printed — the audit view of the same gate `ComponentLibrary` ingest
//! applies (a `netlist_lint` run over the directory gives the same
//! verdict with per-entry detail). Unless `APX_EQUIV=off`, the audit
//! also prints the semantic equivalence-class census: how many distinct
//! *functions* the intact entries compute (canonical BDD digest per
//! component class; entries past the node budget count as their own
//! class) — the gap to the entry count is what a GC pass with
//! equivalence collapse would reclaim.
//!
//! Full `APX_*` knob reference: `crates/bench/README.md`.

use apx_bench::{cache_dir, env_switch, results_dir};
use apx_core::cache::{cache_dir_stats, SweepCache};
use apx_core::report::TextTable;
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;

fn main() {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .or_else(cache_dir)
        .unwrap_or_else(|| results_dir().join("cache"));
    let stats = cache_dir_stats(&dir);
    println!("=== cache_stats: {} ===\n", dir.display());
    if stats.files == 0 && stats.tmp_litter == 0 {
        println!("no .sweep entries (missing or empty directory)");
        return;
    }
    println!(
        "{} files, {} intact entries, {} corrupt/stale, {} bytes total, {} orphaned temp files",
        stats.files, stats.entries, stats.corrupt, stats.total_bytes, stats.tmp_litter
    );
    let mut table = TextTable::new(vec!["operator", "width", "operands", "entries"]);
    for ((op, width, signed), count) in &stats.per_op {
        table.row(vec![
            op.to_string(),
            format!("{width}"),
            if *signed { "signed" } else { "unsigned" }.to_owned(),
            format!("{count}"),
        ]);
    }
    println!("{}", table.to_text());
    if env_switch("APX_VERIFY", false) {
        // Per-diagnostic counts over every intact entry, keyed by the
        // stable diagnostic names (`output-arity`, `stuck-output`, ...).
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut dirty = 0usize;
        let mut audited = 0usize;
        let census = env_switch("APX_EQUIV", true);
        let mut classes: HashSet<(apx_arith::Operator, u32, bool, u128)> = HashSet::new();
        let mut unbudgeted = 0usize;
        for entry in SweepCache::new(&dir).scan() {
            audited += 1;
            let diags = apx_verify::lint_component(&entry.circuit.netlist, entry.op, entry.width);
            if !diags.is_empty() {
                dirty += 1;
            }
            for d in diags {
                *counts.entry(d.name()).or_default() += 1;
            }
            if census {
                match apx_verify::functional_digest(&entry.circuit.netlist) {
                    Some(digest) => {
                        classes.insert((entry.op, entry.width, entry.signed, digest));
                    }
                    None => unbudgeted += 1,
                }
            }
        }
        println!("verify: {audited} entries audited, {dirty} with diagnostics");
        if census {
            let distinct = classes.len() + unbudgeted;
            println!(
                "equivalence: {distinct} classes across {audited} entries, {} semantic duplicates",
                audited - distinct
            );
        }
        if !counts.is_empty() {
            let mut table = TextTable::new(vec!["diagnostic", "count"]);
            for (name, count) in &counts {
                table.row(vec![(*name).to_owned(), format!("{count}")]);
            }
            println!("{}", table.to_text());
        }
    }
    if stats.corrupt > 0 {
        println!(
            "note: corrupt/stale files are treated as misses by sweeps and \
             skipped by library scans; deleting them is always safe"
        );
    }
    if stats.tmp_litter > 0 {
        println!(
            "note: orphaned temp files are litter from writers killed mid-store; \
             a GC pass (`orchestrate` with APX_GC) removes them once stale"
        );
    }
}
