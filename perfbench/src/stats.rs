//! Percentile rules shared by every timing the benchmark reports.
//!
//! Timings use the nearest-rank percentile: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 · n)`. A
//! percentile is only worth reporting when at least ten samples lie beyond
//! it; [`supported_percentile`] names the highest standard one that does.

/// The standard percentiles, highest first.
const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// integer hundredths of a percent so 99 % of 1000 is exactly rank 990.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as u128;
    let r = (hundredths * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending).
/// Returns `None` for an empty sample.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`] of `n`
/// samples strictly above its rank, or `None` if not even the median has.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Most chunks [`chunked_p99`] splits a sample into.
const MAX_CHUNKS: usize = 10;
/// Fewest samples per chunk, so each chunk's p99 has ten samples beyond it.
const MIN_CHUNK: usize = 1000;

/// The median, over consecutive chunks of a time-ordered sample, of each
/// chunk's p99. Up to [`MAX_CHUNKS`] chunks of at least [`MIN_CHUNK`]
/// samples each (one chunk when the sample is smaller). A short stall on a
/// shared host moves one chunk's tail, not the reported one.
pub fn chunked_p99(in_time_order: &[u64]) -> Option<u64> {
    let n = in_time_order.len();
    if n == 0 {
        return None;
    }
    let k = (n / MIN_CHUNK).clamp(1, MAX_CHUNKS);
    let mut tails: Vec<u64> = (0..k)
        .map(|i| {
            let mut chunk = in_time_order[i * n / k..(i + 1) * n / k].to_vec();
            chunk.sort_unstable();
            nearest_rank(&chunk, 99.0).expect("chunks are non-empty")
        })
        .collect();
    tails.sort_unstable();
    Some(tails[(k - 1) / 2])
}

/// Summary of one timing: median, p99, the highest supported percentile and
/// the maximum, all in the samples' unit, plus the sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: usize,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// [`chunked_p99`]: the tail the benchmark reports as its p99 metric.
    pub p99_chunked: u64,
    pub max: u64,
    /// The highest supported percentile and its value, if any.
    pub top: Option<(f64, u64)>,
}

impl Summary {
    /// Summarises `samples`, given in time order (sorted in place).
    pub fn of(samples: &mut [u64]) -> Summary {
        let p99_chunked = chunked_p99(samples).unwrap_or(0);
        samples.sort_unstable();
        let count = samples.len();
        if count == 0 {
            return Summary::default();
        }
        let top = supported_percentile(count)
            .map(|p| (p, nearest_rank(samples, p).expect("non-empty sample")));
        Summary {
            count,
            p50: nearest_rank(samples, 50.0).expect("non-empty sample"),
            p90: nearest_rank(samples, 90.0).expect("non-empty sample"),
            p99: nearest_rank(samples, 99.0).expect("non-empty sample"),
            p99_chunked,
            max: samples[count - 1],
            top,
        }
    }

    /// Whether p99 is backed by at least [`MIN_BEYOND`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        self.count > 0 && self.count - rank(self.count, 99.0) >= MIN_BEYOND
    }
}

/// Median of a small set of measurements (e.g. repeated replays); the lower
/// middle for an even count. `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Some(v[(v.len() - 1) / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50));
        assert_eq!(nearest_rank(&s, 99.0), Some(99));
        assert_eq!(nearest_rank(&s, 100.0), Some(100));
        assert_eq!(nearest_rank(&s, 0.5), Some(1));
        // Ten samples: p50 is rank 5, p99 rank 10 (the maximum).
        let t: Vec<u64> = (10..20).collect();
        assert_eq!(nearest_rank(&t, 50.0), Some(14));
        assert_eq!(nearest_rank(&t, 99.0), Some(19));
        assert_eq!(nearest_rank(&[7], 99.0), Some(7));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None); // rank 10, 9 beyond
        assert_eq!(supported_percentile(20), Some(50.0)); // rank 10, 10 beyond
        assert_eq!(supported_percentile(99), Some(50.0)); // p90 rank 90: 9 beyond
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0)); // p99 rank 990: 9 beyond
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_count_median_tail_and_max() {
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        let sum = Summary::of(&mut s);
        assert_eq!(sum.count, 1000);
        assert_eq!(sum.p50, 500);
        assert_eq!(sum.p90, 900);
        assert_eq!(sum.p99, 990);
        assert_eq!(sum.max, 1000);
        assert_eq!(sum.top, Some((99.0, 990)));
        assert!(sum.p99_supported());
        assert!(!Summary::of(&mut [1, 2, 3]).p99_supported());
    }

    #[test]
    fn chunked_p99_is_the_median_chunk_tail() {
        assert_eq!(chunked_p99(&[]), None);
        // Under 2000 samples: one chunk, the plain p99.
        let small: Vec<u64> = (1..=1500).collect();
        assert_eq!(chunked_p99(&small), nearest_rank(&small, 99.0));
        // Ten chunks of 1000; one chunk holds a stall of huge values, which
        // moves its own tail but not the median of the ten tails.
        let mut s: Vec<u64> = (0..10_000).map(|i| (i % 1000) as u64).collect();
        for v in &mut s[3000..3200] {
            *v = 1_000_000;
        }
        assert_eq!(chunked_p99(&s), Some(989));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(nearest_rank(&sorted, 99.0), Some(1_000_000));
        // At most ten chunks however large the sample.
        let big: Vec<u64> = (0..50_000).collect();
        assert_eq!(chunked_p99(&big), Some(4 * 5_000 + 4_949));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[]), None);
    }
}
