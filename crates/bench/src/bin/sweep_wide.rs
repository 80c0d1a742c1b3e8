//! Wide-width sweep smoke: the width-12 multiplier grid of
//! [`wide_sweep_grid`], past the 20-input cap of full-domain enumeration.
//!
//! `bench_wide` times isolated WMED calls at wide widths; this binary
//! proves the *whole* sweep pipeline — seeded CGP evolution, bounded
//! scoring, exact stats, activity-based power estimation, CSV mirroring —
//! runs past that cap. A width-12 multiplier has 24 netlist inputs, so the
//! width puts every evaluation of this grid on the bit-parallel backend's
//! streamed row engine, which enumerates only the weighted operand rows
//! for bounded scoring and every row, one at a time, for the final stats.
//!
//! Two invariants are asserted, not just printed:
//!
//! * every threshold-0 entry scores WMED exactly `0.0` — the exact seed
//!   circuit proven exact over the whole width-12 domain, and
//! * every reported WMED is finite (the wide-width stats contract leaves
//!   only `mred` as `NaN` — rendered in the CSV as the explicit `n/a`
//!   marker via [`apx_bench::metric_cell`], never as a literal `NaN`
//!   token, which this binary also asserts over the whole document).
//!
//! Knobs: `APX_ITERS` (default 10, the shape CI runs) and `APX_OUT_DIR`
//! for the `sweep_wide.csv` mirror. Full `APX_*` knob reference:
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
        assert!(m.stats.wmed.is_finite(), "{}: non-finite WMED past the cap", m.name);
        if m.threshold == 0.0 {
            assert_eq!(m.stats.wmed, 0.0, "{}: the exact width-12 seed must score WMED 0", m.name);
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
