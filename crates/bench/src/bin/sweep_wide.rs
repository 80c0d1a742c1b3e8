//! Wide-width sweep smoke: the width-12 multiplier grid of
//! [`wide_sweep_grid`], which only the symbolic (ROBDD model-counting)
//! evaluator backend can execute.
//!
//! `bench_wide` times isolated WMED calls at wide widths; this binary
//! proves the *whole* sweep pipeline — seeded CGP evolution, bounded
//! scoring, exact stats, activity-based power estimation, CSV mirroring —
//! runs past the enumeration engines' 20-input cap. A width-12 multiplier
//! has 24 netlist inputs, so the width alone puts every evaluation of this
//! grid on the symbolic backend.
//!
//! Two invariants are asserted, not just printed:
//!
//! * every threshold-0 entry scores WMED exactly `0.0` — the symbolic
//!   engine proving the exact seed circuit exact at a width nothing else
//!   can check, and
//! * every reported WMED is finite (the wide-width stats contract leaves
//!   only `mred` as `NaN` — rendered in the CSV as the explicit `n/a`
//!   marker via [`apx_bench::metric_cell`], never as a literal `NaN`
//!   token, which this binary also asserts over the whole document).
//!
//! Knobs: `APX_ITERS` (default 10 — evolution is per-candidate BDD
//! construction here, keep it tiny) and `APX_OUT_DIR` for the
//! `sweep_wide.csv` mirror. Full `APX_*` knob reference:
//! `crates/bench/README.md`.

use apx_bench::{out_dir, print_sweep_counters, sweep_entries_table, wide_sweep_grid};
use apx_core::run_sweep;

fn main() {
    let cfg = wide_sweep_grid();
    println!(
        "=== sweep_wide: {} tasks at width {} ({} iterations/run) ===",
        apx_core::grid_keys(&cfg).len(),
        cfg.flow.width,
        cfg.flow.iterations
    );

    let result = run_sweep(&cfg).expect("width-12 sweep");
    print_sweep_counters(&cfg, &result.stats);

    for e in &result.entries {
        let m = &e.circuit;
        assert!(m.stats.wmed.is_finite(), "{}: non-finite WMED from the symbolic backend", m.name);
        if m.threshold == 0.0 {
            assert_eq!(
                m.stats.wmed, 0.0,
                "{}: the exact width-12 seed must score WMED 0 under the symbolic engine",
                m.name
            );
        }
    }
    let csv = sweep_entries_table(&result.entries);
    assert!(
        !csv.to_csv().contains("NaN"),
        "the CSV must render non-finite metrics as n/a, not NaN"
    );
    let path = out_dir().join("sweep_wide.csv");
    csv.write_csv(&path).expect("write csv");
    println!("CSV written to {}", path.display());
}
