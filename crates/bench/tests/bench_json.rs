//! Every JSON and CSV record the bench binaries write must stay valid.
//!
//! A rate formatted with `{:.1}` prints `inf` — not a JSON token — when
//! the wall clock rounds to zero, so rates go through `SweepStats::rate`
//! (clamped denominator). These tests feed `apx_bench::bench_wide_json`
//! such degenerate timings and run a real JSON grammar check over the
//! output (no leniency: `f64::parse` would happily accept `inf`, so
//! numbers are validated against the JSON number grammar, not Rust's).
//! Run after the bench and figure binaries, the committed-file checks
//! cover what that build wrote.

use apx_arith::Operator;
use apx_bench::{bench_wide_json, json_metric, metric_cell, WideCell};

/// A minimal strict JSON recognizer (grammar check only, no tree).
mod json {
    pub fn validate(text: &str) -> Result<(), String> {
        let bytes = text.as_bytes();
        let mut pos = value(bytes, skip_ws(bytes, 0))?;
        pos = skip_ws(bytes, pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], mut p: usize) -> usize {
        while p < b.len() && matches!(b[p], b' ' | b'\t' | b'\n' | b'\r') {
            p += 1;
        }
        p
    }

    fn value(b: &[u8], p: usize) -> Result<usize, String> {
        match b.get(p) {
            Some(b'{') => object(b, p),
            Some(b'[') => array(b, p),
            Some(b'"') => string(b, p),
            Some(b't') => literal(b, p, b"true"),
            Some(b'f') => literal(b, p, b"false"),
            Some(b'n') => literal(b, p, b"null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, p),
            other => Err(format!("unexpected {other:?} at {p}")),
        }
    }

    fn literal(b: &[u8], p: usize, lit: &[u8]) -> Result<usize, String> {
        if b.len() >= p + lit.len() && &b[p..p + lit.len()] == lit {
            Ok(p + lit.len())
        } else {
            Err(format!("bad literal at {p}"))
        }
    }

    fn object(b: &[u8], mut p: usize) -> Result<usize, String> {
        p = skip_ws(b, p + 1);
        if b.get(p) == Some(&b'}') {
            return Ok(p + 1);
        }
        loop {
            p = string(b, skip_ws(b, p))?;
            p = skip_ws(b, p);
            if b.get(p) != Some(&b':') {
                return Err(format!("expected `:` at {p}"));
            }
            p = value(b, skip_ws(b, p + 1))?;
            p = skip_ws(b, p);
            match b.get(p) {
                Some(b',') => p += 1,
                Some(b'}') => return Ok(p + 1),
                other => return Err(format!("expected `,`/`}}`, got {other:?} at {p}")),
            }
        }
    }

    fn array(b: &[u8], mut p: usize) -> Result<usize, String> {
        p = skip_ws(b, p + 1);
        if b.get(p) == Some(&b']') {
            return Ok(p + 1);
        }
        loop {
            p = value(b, skip_ws(b, p))?;
            p = skip_ws(b, p);
            match b.get(p) {
                Some(b',') => p += 1,
                Some(b']') => return Ok(p + 1),
                other => return Err(format!("expected `,`/`]`, got {other:?} at {p}")),
            }
        }
    }

    fn string(b: &[u8], p: usize) -> Result<usize, String> {
        if b.get(p) != Some(&b'"') {
            return Err(format!("expected string at {p}"));
        }
        let mut q = p + 1;
        while let Some(&c) = b.get(q) {
            match c {
                b'"' => return Ok(q + 1),
                b'\\' => q += 2,
                _ => q += 1,
            }
        }
        Err(format!("unterminated string at {p}"))
    }

    /// JSON number grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    /// Deliberately rejects `inf`, `NaN`, `+1`, `01`, `1.` and `.5`.
    fn number(b: &[u8], mut p: usize) -> Result<usize, String> {
        let start = p;
        if b.get(p) == Some(&b'-') {
            p += 1;
        }
        match b.get(p) {
            Some(b'0') => p += 1,
            Some(c) if c.is_ascii_digit() => {
                while b.get(p).is_some_and(u8::is_ascii_digit) {
                    p += 1;
                }
            }
            _ => return Err(format!("bad number at {start}")),
        }
        if b.get(p) == Some(&b'.') {
            p += 1;
            if !b.get(p).is_some_and(u8::is_ascii_digit) {
                return Err(format!("bad fraction at {start}"));
            }
            while b.get(p).is_some_and(u8::is_ascii_digit) {
                p += 1;
            }
        }
        if matches!(b.get(p), Some(b'e' | b'E')) {
            p += 1;
            if matches!(b.get(p), Some(b'+' | b'-')) {
                p += 1;
            }
            if !b.get(p).is_some_and(u8::is_ascii_digit) {
                return Err(format!("bad exponent at {start}"));
            }
            while b.get(p).is_some_and(u8::is_ascii_digit) {
                p += 1;
            }
        }
        Ok(p)
    }
}

#[test]
fn json_checker_rejects_what_it_should() {
    assert!(json::validate("{\"a\": 1.5e-3, \"b\": [true, null, \"x\"]}").is_ok());
    for bad in
        ["{\"a\": inf}", "{\"a\": NaN}", "{\"a\": 1.}", "{\"a\": 01}", "{\"a\": 1} trailing", "{"]
    {
        assert!(json::validate(bad).is_err(), "`{bad}` should be rejected");
    }
}

#[test]
fn bench_wide_json_stays_valid_for_degenerate_timings() {
    // The `inf` hazard: sub-microsecond cells (tiny adders finish 3
    // evaluations faster than the clock ticks) and a rate whose
    // numerator dwarfs a near-zero wall clock.
    let cells = [
        WideCell {
            op: Operator::Mul,
            width: 12,
            backend: "symbolic",
            evaluations: 3,
            wall_seconds: 0.0,
            // The wide-width stats contract: `mred` is `NaN` past
            // exhaustive widths and must land as JSON `null`.
            mred: f64::NAN,
        },
        WideCell {
            op: Operator::Add,
            width: 6,
            backend: "bitpar",
            evaluations: u64::MAX,
            wall_seconds: 1e-12,
            mred: 0.25,
        },
        WideCell {
            op: Operator::Mac,
            width: 8,
            backend: "symbolic",
            evaluations: 0,
            wall_seconds: 3.5,
            mred: f64::NAN,
        },
    ];
    let doc = bench_wide_json(64, &cells);
    json::validate(&doc).unwrap_or_else(|e| panic!("invalid document ({e}): {doc}"));
    assert!(doc.contains("\"bench\": \"bench_wide\""), "missing bench name: {doc}");
    assert!(doc.contains("\"weighted_values\": 64"), "missing weighted_values: {doc}");
    assert!(doc.contains("\"backend\": \"symbolic\""), "missing symbolic cell: {doc}");
    assert!(doc.contains("\"backend\": \"bitpar\""), "missing bitpar cell: {doc}");
    assert!(doc.contains("\"mred\": null"), "NaN mred must render as null: {doc}");
    assert!(doc.contains("\"mred\": 2.5"), "finite mred must stay a number: {doc}");
    assert!(!doc.contains("NaN"), "no emitted JSON may carry a literal NaN: {doc}");
    // Empty grids must still be a valid document.
    json::validate(&bench_wide_json(0, &[])).expect("empty cell list");
}

#[test]
fn metric_rendering_never_emits_nan_tokens() {
    // The report-surface half of the wide-width stats contract: CSV
    // cells render non-finite metrics as `n/a`, JSON fields as `null` —
    // a literal `NaN` is a parse error in JSON and a silent data hole
    // in most CSV consumers.
    assert_eq!(metric_cell(f64::NAN), "n/a");
    assert_eq!(metric_cell(f64::INFINITY), "n/a");
    assert_eq!(metric_cell(f64::NEG_INFINITY), "n/a");
    assert_eq!(metric_cell(0.25), "2.500000000e-1");
    assert_eq!(json_metric(f64::NAN), "null");
    assert_eq!(json_metric(0.25), "2.500000000e-1");
}

#[test]
fn committed_results_files_contain_no_nan_tokens() {
    // Blanket regression over every tracked report artifact: whatever a
    // binary emitted under `results/`, the wide-width `mred = NaN`
    // contract must have been rendered (`n/a`/`null`), never leaked.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut scanned = 0usize;
    for entry in std::fs::read_dir(dir).expect("results/ is committed") {
        let path = entry.unwrap().path();
        let is_report =
            path.extension().is_some_and(|e| e == "csv" || e == "json") && path.is_file();
        if !is_report {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("NaN"), "{} contains a literal NaN token", path.display());
        scanned += 1;
    }
    assert!(scanned > 0, "results/ should hold committed CSV/JSON artifacts");
}

#[test]
fn committed_bench_symbolic_json_parses() {
    // The tracked wide-width perf-history file must be valid JSON, cover
    // the widths past the enumeration cap on both backends, and carry the
    // streamed bit-parallel 16-bit multiplier cell (which `bench_wide`
    // asserts bit-identical to the symbolic one).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_symbolic.json");
    let text = std::fs::read_to_string(path).expect("results/BENCH_symbolic.json is committed");
    json::validate(&text).unwrap_or_else(|e| panic!("committed BENCH_symbolic.json invalid: {e}"));
    for key in [
        "\"backend\": \"symbolic\"",
        "\"backend\": \"bitpar\"",
        "\"op\": \"mul\"",
        "\"op\": \"add\"",
        "\"op\": \"mac\"",
        "\"width\": 12",
        "\"width\": 16",
        "\"weighted_values\"",
        "{\"op\": \"mul\", \"width\": 16, \"backend\": \"bitpar\"",
    ] {
        assert!(text.contains(key), "committed BENCH_symbolic.json lacks {key}");
    }
}
