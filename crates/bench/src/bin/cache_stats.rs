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
//! The audit of the same directory — the `apx_verify` lint per entry
//! and the equivalence-class census — is `netlist_lint`.
//!
//! Full `APX_*` knob reference: `crates/bench/README.md`.

use apx_bench::{cache_dir, results_dir};
use apx_core::cache::cache_dir_stats;
use apx_core::report::TextTable;
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
