//! The benchmark's own arithmetic: order statistics, ratios, the
//! resident-memory probe and the result line. Everything here is pure
//! (or reads one `/proc` file) so it is covered by unit tests.

use std::fmt::Write as _;

/// Nearest-rank percentile of `samples`: the smallest sample with at
/// least `p · n` samples at or below it. `p` is clamped to `[0, 1]`;
/// an empty slice yields 0.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of `samples` (mean of the two middle samples for even counts).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Samples a tail percentile needs beyond it before it is reported as
/// that percentile rather than as the maximum.
pub const TAIL_SAMPLES: usize = 10;

/// The tail statistic reported as `*_p75_s`: the 75th percentile when at
/// least [`TAIL_SAMPLES`] samples lie beyond it (`n ≥ 40`), otherwise the
/// maximum — a p75 of a handful of samples is just one of them.
#[must_use]
pub fn tail(samples: &[f64]) -> f64 {
    if samples.len() >= 4 * TAIL_SAMPLES {
        percentile(samples, 0.75)
    } else {
        percentile(samples, 1.0)
    }
}

/// `part / base`, defined as 0 for an empty base (a layer that did no
/// work wasted none of it).
#[must_use]
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text into MiB. `None` when the line is absent or malformed.
#[must_use]
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib as f64 / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set in MiB (0 where `/proc` is absent).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

/// One reported metric: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Renders the final result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`. Non-finite values (never expected) are
/// written as 0 so the line stays valid JSON.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_over_its_sample_count() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.75), 4.0, "ceil(0.75·5) = 4th smallest");
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0, "rank clamps to the first sample");
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 40 samples: p75 is the 30th smallest, 10 samples lie beyond it.
        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.75), 30.0);
    }

    #[test]
    fn tail_is_p75_only_with_ten_samples_beyond_it() {
        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&many), 30.0);
        let few: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&few), 39.0, "below 40 samples the tail is the maximum");
        assert_eq!(tail(&[2.5]), 2.5);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_divide_by_their_base_and_empty_bases_give_zero() {
        assert_eq!(ratio(3.0, 12.0), 0.25);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        // Overhead ratio: traced / untraced − 1.
        assert!((ratio(1.05, 1.0) - 1.0 - 0.05).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_parses_kib_into_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1024 kB\n"), None, "no VmHWM line");
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None, "malformed count");
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 10 MB\n"), None, "unexpected unit");
        assert!(peak_rss_mib() > 0.0, "the test process itself has a resident set");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric { name: "wall_s", value: 1.25, unit: "s" },
                Metric { name: "ok_ratio", value: 1.0, unit: "ratio" },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"ok_ratio\": {\"value\": 1.0, \"unit\": \"ratio\"}}}"
        );
        let nan = result_json(false, 1, 1, &[Metric { name: "x", value: f64::NAN, unit: "s" }]);
        assert!(nan.contains("\"value\": 0.0"));
    }
}
