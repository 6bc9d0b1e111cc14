//! Latency percentiles with the standard (ceiling) nearest-rank definition.
//!
//! Shared by the serving harnesses (`serve_sim`, `zsc_serve`): the p-th
//! percentile of `n` sorted samples is the sample at 1-based rank
//! `⌈p · n⌉`. An earlier `serve_sim` revision used `round(p · (n − 1))`,
//! which for small sample counts rounds *down* past the true rank and
//! understates tail percentiles such as p99. [`LatencySummary`] is the
//! per-path throughput and percentile record both harnesses report.

/// The `p`-th percentile (`0 ≤ p ≤ 1`) of an ascending-sorted sample set,
/// using the ceiling nearest-rank definition `⌈p · n⌉`.
///
/// `p = 0.0` (and any `p` small enough that `⌈p · n⌉ = 0`) clamps to rank 1
/// — the minimum sample — rather than indexing before the slice; `p = 1.0`
/// is the maximum. Returns `0.0` for an empty sample set.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or the samples are not sorted
/// ascending.
///
/// # Example
///
/// ```
/// use metrics::percentile::nearest_rank;
///
/// let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
/// assert_eq!(nearest_rank(&sorted, 0.0), 10.0); // rank clamps to 1
/// assert_eq!(nearest_rank(&sorted, 0.50), 30.0); // rank ⌈2.5⌉ = 3
/// assert_eq!(nearest_rank(&sorted, 0.99), 50.0); // rank ⌈4.95⌉ = 5
/// ```
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "percentile must be in [0, 1], got {p}"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted ascending"
    );
    if sorted.is_empty() {
        return 0.0;
    }
    // ⌈p · n⌉ is 0 for p = 0 (and tiny p); the clamp pins the rank to ≥ 1 so
    // the subtraction below can never index before the slice.
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Throughput plus ceiling nearest-rank latency percentiles for one
/// measured path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Queries answered.
    pub queries: usize,
    /// Window the throughput is measured over, in seconds.
    pub elapsed_s: f64,
    /// `queries / elapsed_s`.
    pub qps: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
}

impl LatencySummary {
    /// Summarises `queries` answered over `elapsed_s` seconds.
    /// `latencies_us` holds one sample per timed unit of work (a query or a
    /// whole batch), in any order; an empty sample set yields zero
    /// percentiles. The caller chooses the window: the latency sum for
    /// serial timing loops, the wall clock for concurrent callers.
    ///
    /// # Example
    ///
    /// ```
    /// use metrics::percentile::LatencySummary;
    ///
    /// let stats = LatencySummary::new(4, vec![30.0, 10.0, 20.0, 40.0], 0.5);
    /// assert_eq!(
    ///     stats.to_json(),
    ///     "{\"queries\": 4, \"elapsed_s\": 0.500000, \"qps\": 8.0, \
    ///      \"p50_us\": 20.0, \"p95_us\": 40.0, \"p99_us\": 40.0}"
    /// );
    /// assert_eq!(LatencySummary::new(0, Vec::new(), 1.0).p99_us, 0.0);
    /// ```
    pub fn new(queries: usize, mut latencies_us: Vec<f64>, elapsed_s: f64) -> Self {
        latencies_us.sort_by(f64::total_cmp);
        Self {
            queries,
            elapsed_s,
            qps: queries as f64 / elapsed_s.max(1e-12),
            p50_us: nearest_rank(&latencies_us, 0.50),
            p95_us: nearest_rank(&latencies_us, 0.95),
            p99_us: nearest_rank(&latencies_us, 0.99),
        }
    }

    /// The summary as one JSON object: `elapsed_s` to six decimals, the
    /// rates and latencies to one.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queries\": {}, \"elapsed_s\": {:.6}, \"qps\": {:.1}, \
             \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}",
            self.queries, self.elapsed_s, self.qps, self.p50_us, self.p95_us, self.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        // rank(0.2 · 5) = ⌈1⌉ = 1 → first sample.
        assert_eq!(nearest_rank(&sorted, 0.20), 1.0);
        // rank(0.5 · 5) = ⌈2.5⌉ = 3 → third sample.
        assert_eq!(nearest_rank(&sorted, 0.50), 3.0);
        // rank(0.8 · 5) = ⌈4⌉ = 4 → fourth sample.
        assert_eq!(nearest_rank(&sorted, 0.80), 4.0);
        // rank(0.81 · 5) = ⌈4.05⌉ = 5 → fifth sample.
        assert_eq!(nearest_rank(&sorted, 0.81), 5.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 5.0);
    }

    /// The case the old `round(p · (n − 1))` formula got wrong: with 10
    /// samples, p99 must be the maximum (rank ⌈9.9⌉ = 10), and p50 must be
    /// the 5th sample (rank ⌈5⌉ = 5), not the 6th that midpoint
    /// interpolation-style indices produce.
    #[test]
    fn small_sample_tails_are_not_understated() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.99), 10.0);
        assert_eq!(nearest_rank(&sorted, 0.95), 10.0);
        assert_eq!(nearest_rank(&sorted, 0.50), 5.0);
        // Four samples: the old formula put p50 at round(1.5) = index 2
        // (third sample); the nearest-rank definition takes rank 2.
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&four, 0.50), 2.0);
    }

    #[test]
    fn single_sample_and_empty() {
        assert_eq!(nearest_rank(&[7.5], 0.01), 7.5);
        assert_eq!(nearest_rank(&[7.5], 1.0), 7.5);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    /// p = 0 computes rank ⌈0⌉ = 0; the clamp must pin it to rank 1 (the
    /// minimum) instead of indexing before the slice. Same for any p small
    /// enough that ⌈p · n⌉ = 0.
    #[test]
    fn zero_and_tiny_percentiles_clamp_to_the_minimum() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&sorted, 1e-12), 1.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 5.0);
        assert_eq!(nearest_rank(&[], 0.0), 0.0);
        assert_eq!(nearest_rank(&[], 1.0), 0.0);
        assert_eq!(nearest_rank(&[42.0], 0.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 1]")]
    fn rejects_out_of_range_percentile() {
        let _ = nearest_rank(&[1.0], -0.25);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 1]")]
    fn rejects_percentile_above_one() {
        let _ = nearest_rank(&[1.0], 1.5);
    }
}
