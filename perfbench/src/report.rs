//! The result line and the order statistics behind it.

use std::time::Duration;

/// One run's result: how many verdicts or requests were attempted and failed, and the
/// named metrics with their units.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Set when a check other than a verdict failed (e.g. trace fidelity).
    pub broken: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn count(&mut self, name: impl Into<String>, value: usize) {
        self.metric(name, value as f64, "count");
    }

    pub fn secs(&mut self, name: impl Into<String>, value: Duration) {
        self.metric(name, value.as_secs_f64(), "s");
    }

    /// `ok_share` and `peak_rss_mb`, which every end-to-end report carries.
    pub fn finish_end_to_end(&mut self, peak_rss_mb: f64) {
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("ok_share", ok, "share");
        self.metric("peak_rss_mb", peak_rss_mb, "MB");
    }

    /// The single JSON line the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && !self.broken && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a sample (mean of the two middle values for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of a sample of durations, in seconds.
pub fn median_secs(values: &[Duration]) -> f64 {
    median(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Nearest-rank percentile `p` of a sample; 0 if empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the 99th, 95th, 90th, 80th and 50th percentiles that leaves at least
/// ten of `n` samples above it (the median when `n` is smaller).
pub fn tail_rank(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 80.0]
        .into_iter()
        .find(|p: &f64| n >= 10 + ((p / 100.0) * n as f64).ceil() as usize)
        .unwrap_or(50.0)
}

/// [`tail_rank`] of the sample's size, with its value.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    let p = tail_rank(values.len());
    (p, percentile(values, p))
}

/// Fewest samples whose 99th percentile leaves ten above it.
const TAIL_WINDOW: usize = 1000;

/// The tail of a sample in time order: [`tail_percentile`] of each of the largest
/// number of consecutive, equal windows of at least [`TAIL_WINDOW`] samples, and the
/// median over the windows, with the lowest percentile any window used. A stall that
/// lasts part of a run then moves one window's tail, not the run's. A sample smaller
/// than one window is one window.
pub fn windowed_tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let windows = (n / TAIL_WINDOW).max(1);
    let tails: Vec<(f64, f64)> = (0..windows)
        .map(|w| tail_percentile(&values[w * n / windows..(w + 1) * n / windows]))
        .collect();
    let p = tails.iter().map(|t| t.0).fold(100.0, f64::min);
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (p, median(&values))
}

/// Prints the size and the 10th, 50th and 90th percentiles of a sample to stderr.
pub fn log_sample(what: &str, sample: &[Duration]) {
    let ms: Vec<f64> = sample.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    eprintln!(
        "perfbench: {what}: {} samples, p10 {:.3} ms, p50 {:.3} ms, p90 {:.3} ms",
        ms.len(),
        percentile(&ms, 10.0),
        percentile(&ms, 50.0),
        percentile(&ms, 90.0)
    );
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_above() {
        let values: Vec<f64> = (1..=57).map(f64::from).collect();
        assert_eq!(tail_percentile(&values), (80.0, 46.0));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&values), (99.0, 990.0));
        assert_eq!(tail_percentile(&[3.0, 1.0, 2.0]).0, 50.0);
        assert_eq!(tail_rank(5 * 19), 80.0);
        assert_eq!(tail_rank(5 * 64), 95.0);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Three windows of 1000; the middle one holds a stall.
        let mut values = vec![1.0; 3000];
        values[1000..1100].fill(50.0);
        assert_eq!(windowed_tail(&values), (99.0, 1.0));
        assert_eq!(tail_percentile(&values), (99.0, 50.0));
        assert_eq!(windowed_tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
