//! Static audit of a sweep cache / component-library directory.
//!
//! Runs every intact entry through the `apx_verify` component lint —
//! the same gate `ComponentLibrary` ingest applies — and reports each
//! finding with its cache key, severity and named diagnostic, so an
//! operator can audit a directory *before* pointing a library-mode
//! sweep at it (and CI can assert the published smoke caches stay
//! clean). The view is strictly read-only.
//!
//! Usage: `netlist_lint [--json] [dir]` — the directory argument falls
//! back to `APX_CACHE_DIR`, then to the default `results/cache`. The
//! exit status is 1 when any error-severity diagnostic fired, 0
//! otherwise (warnings — stuck outputs, dead nodes — are reported but
//! do not fail the audit: they are legal, if wasteful, circuits).
//!
//! Every run also takes the semantic equivalence-class census:
//! `equivalence_classes` counts the distinct functions among the intact
//! entries, by `apx_verify::class_representatives` — the rule the
//! library's semantic dedup and the GC's equivalence collapse use — and
//! `semantic_duplicates` is entries minus classes. The human mode prints
//! it as an `equivalence:` line.
//!
//! `--json` swaps the human tables for one machine-readable JSON
//! document: a `diagnostics` array (one object per finding), the
//! per-diagnostic `counts`, a summary (`entries`, `errors`, `warnings`)
//! and the census fields.
//!
//! `netlist_lint --seeds` ignores the directory and instead proves —
//! by BDD equivalence checking, not sampling — that every
//! [`Operator::seed_circuit`] computes its reference function at every
//! width the symbolic backend supports, both signednesses. Exit status
//! 1 on any disproof (with the counterexample input assignment) or
//! budget exhaustion. This is the machine-checked form of the "exact
//! seed has zero error" invariant the whole sweep stands on. Proof cost
//! doubles per width bit (one pinned proof per weighted operand value);
//! `APX_SEEDS_MAX_WIDTH` caps the ladder when minutes matter (CI uses
//! 8), and the uncapped default is the complete audit.
//!
//! Full `APX_*` knob reference: `crates/bench/README.md`.

use apx_arith::{EvalBackend, Operator};
use apx_bench::{cache_dir, results_dir, seeds_max_width};
use apx_core::cache::SweepCache;
use apx_core::report::TextTable;
use apx_verify::{class_representatives, prove_seed, Equiv, Severity};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One lint finding, flattened for both output modes.
struct Finding {
    key: String,
    op: Operator,
    width: u32,
    signed: bool,
    severity: Severity,
    name: &'static str,
    message: String,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Proves every seed circuit equivalent to its reference function at
/// every symbolically supported width; returns the number of failures.
fn seed_self_check() -> usize {
    let mut failures = 0usize;
    let mut proved = 0usize;
    let cap = seeds_max_width();
    for op in [Operator::Mul, Operator::Add, Operator::Mac] {
        for signed in [false, true] {
            for width in 1..=op.max_width(EvalBackend::Symbolic).min(cap) {
                let operands = if signed { "signed" } else { "unsigned" };
                match prove_seed(op, width, signed) {
                    Equiv::Equal => {
                        proved += 1;
                        println!("seed {op} w{width} {operands}: proved equal");
                    }
                    Equiv::Differs { witness } => {
                        failures += 1;
                        let bits: String =
                            witness.iter().map(|&b| if b { '1' } else { '0' }).collect();
                        println!("seed {op} w{width} {operands}: DIFFERS on inputs [{bits}]");
                    }
                    Equiv::Unknown { budget } => {
                        failures += 1;
                        println!(
                            "seed {op} w{width} {operands}: UNPROVEN (node budget {budget} \
                             exhausted)"
                        );
                    }
                }
            }
        }
    }
    println!("seeds: {proved} proved, {failures} failed");
    failures
}

fn main() {
    let mut json = false;
    let mut seeds = false;
    let mut dir_arg: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--seeds" => seeds = true,
            other => dir_arg = Some(PathBuf::from(other)),
        }
    }
    if seeds {
        println!("=== netlist_lint --seeds ===\n");
        if seed_self_check() > 0 {
            std::process::exit(1);
        }
        return;
    }
    let dir: PathBuf = dir_arg.or_else(cache_dir).unwrap_or_else(|| results_dir().join("cache"));
    if !json {
        println!("=== netlist_lint: {} ===\n", dir.display());
    }

    let scanned = SweepCache::new(&dir).scan();
    let entries = scanned.len();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    for entry in &scanned {
        for d in apx_verify::lint_component(&entry.circuit.netlist, entry.op, entry.width) {
            match d.severity() {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
            *counts.entry(d.name()).or_default() += 1;
            findings.push(Finding {
                key: entry.key.hex(),
                op: entry.op,
                width: entry.width,
                signed: entry.signed,
                severity: d.severity(),
                name: d.name(),
                message: d.to_string(),
            });
        }
    }
    // Distinct functions: the members that represent their own class.
    let members: Vec<_> =
        scanned.iter().map(|e| (e.op, e.width, e.signed, &e.circuit.netlist)).collect();
    let equivalence_classes = class_representatives(&members, |_, _| Ordering::Equal)
        .into_iter()
        .enumerate()
        .filter(|&(i, rep)| rep == i)
        .count();

    if json {
        let rows: Vec<String> = findings
            .iter()
            .map(|f| {
                format!(
                    "    {{\"key\": \"{}\", \"op\": \"{}\", \"width\": {}, \"signed\": {}, \
                     \"severity\": \"{}\", \"name\": \"{}\", \"message\": \"{}\"}}",
                    f.key,
                    f.op,
                    f.width,
                    f.signed,
                    format!("{:?}", f.severity).to_lowercase(),
                    f.name,
                    json_escape(&f.message)
                )
            })
            .collect();
        let count_rows: Vec<String> =
            counts.iter().map(|(name, n)| format!("\"{name}\": {n}")).collect();
        println!(
            "{{\n  \"dir\": \"{}\",\n  \"entries\": {entries},\n  \"errors\": {errors},\n  \
             \"warnings\": {warnings},\n  \"counts\": {{{}}},\n  \"diagnostics\": \
             [\n{}\n  ],\n  \"equivalence_classes\": {equivalence_classes},\n  \
             \"semantic_duplicates\": {}\n}}",
            json_escape(&dir.display().to_string()),
            count_rows.join(", "),
            rows.join(",\n"),
            entries - equivalence_classes,
        );
    } else {
        if !findings.is_empty() {
            let mut summary = TextTable::new(vec!["diagnostic", "count"]);
            for (name, count) in &counts {
                summary.row(vec![(*name).to_owned(), format!("{count}")]);
            }
            println!("{}", summary.to_text());
            let mut table = TextTable::new(vec!["key", "component", "severity", "diagnostic"]);
            for f in &findings {
                table.row(vec![
                    f.key.clone(),
                    format!(
                        "{} w{} {}",
                        f.op,
                        f.width,
                        if f.signed { "signed" } else { "unsigned" }
                    ),
                    format!("{:?}", f.severity).to_lowercase(),
                    f.message.clone(),
                ]);
            }
            println!("{}", table.to_text());
        }
        println!("lint: {errors} errors, {warnings} warnings across {entries} entries");
        println!(
            "equivalence: {equivalence_classes} classes across {entries} entries, {} semantic \
             duplicates",
            entries - equivalence_classes
        );
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
