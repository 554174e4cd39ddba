//! Order statistics for the benchmark's timings.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer it is a guess about the maximum.
pub const MIN_BEYOND: usize = 10;

/// One nearest-rank percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples ranked after it.
    pub beyond: usize,
}

impl Pick {
    /// Whether enough samples lie beyond the pick for it to be a
    /// percentile rather than an extreme ([`MIN_BEYOND`]).
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of ascending `sorted`:
/// the smallest sample with at least `q` of the samples at or below it.
/// `None` for an empty set.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Pick> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pick {
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// The median of `values` (mean of the two middle samples for an even
/// count); `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A rate robust to bursts: the samples are cut into at most `windows`
/// consecutive windows of whole `cycle`-sample cycles (a trailing partial
/// cycle is left out), each window's rate is its `amount` total over its
/// `time` total, and the median window rate is returned. `None` when
/// there is not one whole cycle.
pub fn windowed_rate(amount: &[f64], time: &[f64], cycle: usize, windows: usize) -> Option<f64> {
    let cycles = amount.len().min(time.len()) / cycle;
    let windows = windows.min(cycles);
    let rates: Vec<f64> = (0..windows)
        .map(|w| {
            let span = (w * cycles / windows * cycle)..((w + 1) * cycles / windows * cycle);
            amount[span.clone()].iter().sum::<f64>() / time[span].iter().sum::<f64>()
        })
        .collect();
    median(&rates)
}

/// `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 0.5).unwrap().value, 5.0);
        assert_eq!(percentile(&s, 0.55).unwrap().value, 6.0);
        assert_eq!(percentile(&s, 1.0).unwrap().value, 10.0);
        assert_eq!(percentile(&s, 0.01).unwrap().value, 1.0);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert!(p.resolved());

        let short = percentile(&ramp(999), 0.99).unwrap();
        assert_eq!(short.beyond, 9);
        assert!(!short.resolved());

        let tiny = percentile(&ramp(40), 0.99).unwrap();
        assert_eq!(tiny.value, 40.0, "with 40 samples p99 is the maximum");
        assert!(!tiny.resolved());
    }

    #[test]
    fn windowed_rate_takes_whole_cycles_and_the_median_window() {
        // Ten cycles of two samples; the fourth window is a burst.
        let amount = [1.0; 21];
        let mut time = [1.0; 21];
        time[6] = 9.0;
        time[20] = 100.0; // a partial cycle, left out
        assert_eq!(windowed_rate(&amount, &time, 2, 5), Some(1.0));
        // One window is the plain total over total.
        assert_eq!(windowed_rate(&amount, &time, 2, 1), Some(20.0 / 28.0));
        assert_eq!(windowed_rate(&amount[..1], &time[..1], 2, 5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
