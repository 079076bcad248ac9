//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! samples is the smallest sample with at least `ceil(q * n)` samples at
//! or below it, so every reported value is one that was observed. A
//! failed or refused operation is recorded as `f64::INFINITY`, which
//! sorts above every completed one: failures push every percentile up
//! instead of vanishing from the sample.

/// The sample that stands for a failed operation.
pub const FAILED: f64 = f64::INFINITY;

/// Nearest-rank `q`-quantile (`q` in `(0, 1]`) of `samples`; `None`
/// when there are none.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Smallest block a tail percentile is taken over: p99 then has at
/// least 10 samples beyond it.
pub const TAIL_BLOCK: usize = 1000;
/// Most blocks a run is cut into.
pub const MAX_BLOCKS: usize = 10;

/// The `q`-quantile of a run's latencies, robust to short disturbances:
/// `samples` (in send order) are cut into consecutive blocks of at least
/// [`TAIL_BLOCK`] samples, at most [`MAX_BLOCKS`] of them, and the
/// median of the blocks' nearest-rank quantiles is returned. Runs of
/// fewer than `2 * TAIL_BLOCK` samples are one block.
pub fn block_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let blocks = (samples.len() / TAIL_BLOCK).clamp(1, MAX_BLOCKS);
    let per_block: Vec<f64> = (0..blocks)
        .filter_map(|b| {
            let range = b * samples.len() / blocks..(b + 1) * samples.len() / blocks;
            percentile(&samples[range], q)
        })
        .collect();
    median(&per_block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.001), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn block_percentile_is_the_median_of_block_quantiles() {
        // One block: the plain percentile.
        let s: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(block_percentile(&s, 0.99), percentile(&s, 0.99));
        // Three blocks of 1000; a burst of slow samples in one block
        // moves only that block's p99.
        let mut s = vec![1.0; 3000];
        for x in &mut s[1000..1100] {
            *x = 50.0;
        }
        s[2989..].fill(9.0);
        assert_eq!(percentile(&s, 0.99), Some(50.0));
        assert_eq!(block_percentile(&s, 0.99), Some(9.0));
        assert_eq!(block_percentile(&[], 0.99), None);
        // At most ten blocks, each at least TAIL_BLOCK long.
        let s: Vec<f64> = (0..25_000).map(f64::from).collect();
        assert_eq!(block_percentile(&s, 1.0), Some(12_499.0));
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 1000 samples, 11 failed: more than 1% failed, so p99 is a
        // failure; the median is untouched.
        let mut s: Vec<f64> = (1..=989).map(f64::from).collect();
        s.extend(std::iter::repeat_n(FAILED, 11));
        assert_eq!(percentile(&s, 0.99), Some(FAILED));
        assert_eq!(median(&s), Some(500.0));
        // Exactly 10 failures of 1000 leave p99 on the slowest success.
        let mut s: Vec<f64> = (1..=990).map(f64::from).collect();
        s.extend(std::iter::repeat_n(FAILED, 10));
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        // Failures sort last whatever order they arrive in.
        let s = [FAILED, 2.0, FAILED, 1.0];
        assert_eq!(percentile(&s, 0.5), Some(2.0));
        assert_eq!(percentile(&s, 0.75), Some(FAILED));
    }
}
