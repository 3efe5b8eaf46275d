//! Sample arithmetic: supported percentiles, geometric means, generator
//! lateness and the unattributed remainder of a layer breakdown.

/// Samples beyond a percentile's rank that a sample must hold before the
/// percentile is reported at all.
pub const MIN_BEYOND: usize = 10;

/// A set of timing samples, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len().max(1) as f64
    }

    /// The nearest-rank `q`-quantile, or an error naming the shortfall when
    /// fewer than [`MIN_BEYOND`] samples lie beyond its rank.
    pub fn percentile(&mut self, q: f64) -> Result<f64, String> {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = nearest_rank(q, n);
        if n == 0 || n - rank < MIN_BEYOND {
            return Err(format!(
                "p{} needs at least {} samples, have {n}",
                q * 100.0,
                min_samples(q)
            ));
        }
        Ok(self.values[rank - 1])
    }

    /// [`Samples::percentile`] at 0.5.
    pub fn median(&mut self) -> Result<f64, String> {
        self.percentile(0.5)
    }

    /// The middle value of a small sample whose size the benchmark fixes
    /// (set-up repeats), where the support rule does not apply.
    pub fn middle(&mut self) -> f64 {
        self.nearest(0.5)
    }

    /// The nearest-rank `q`-quantile of a small sample whose size the
    /// benchmark fixes (set-up repeats, phase windows), where the support
    /// rule does not apply.
    pub fn nearest(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        self.values
            .get(nearest_rank(q, self.values.len()).saturating_sub(1))
            .copied()
            .unwrap_or(f64::NAN)
    }
}

/// The nearest-rank `q`-quantile of a few values (see [`Samples::nearest`]).
pub fn nearest(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut s = Samples::new();
    values.into_iter().for_each(|v| s.push(v));
    s.nearest(q)
}

/// `seq` (samples in the order they were taken) cut into `windows` equal,
/// consecutive slices; a remainder shorter than a slice is dropped.
fn windows(seq: &[f64], windows: usize) -> Result<impl Iterator<Item = &[f64]>, String> {
    let per = seq.len() / windows.max(1);
    if per == 0 {
        return Err(format!(
            "{} samples cannot fill {windows} windows",
            seq.len()
        ));
    }
    Ok(seq.chunks_exact(per).take(windows))
}

/// The `q`-quantile of each window of `seq`, in order. Each window must
/// support `q`.
pub fn window_percentiles(seq: &[f64], n: usize, q: f64) -> Result<Vec<f64>, String> {
    windows(seq, n)?
        .map(|slice| {
            let mut s = Samples::new();
            slice.iter().for_each(|&v| s.push(v));
            s.percentile(q)
        })
        .collect()
}

/// Replies per second of each window of a closed loop's latencies (ms):
/// the replies (finite latencies) over the time spent waiting for them.
pub fn window_rates(seq: &[f64], n: usize) -> Result<Vec<f64>, String> {
    windows(seq, n)?
        .map(|slice| {
            let done: Vec<f64> = slice.iter().copied().filter(|v| v.is_finite()).collect();
            let busy: f64 = done.iter().sum();
            if busy > 0.0 {
                Ok(done.len() as f64 * 1e3 / busy)
            } else {
                Err("a window holds no reply".to_string())
            }
        })
        .collect()
}

/// 1-based nearest rank of the `q`-quantile among `n` samples. The small
/// slack keeps `0.9 * 10 = 9.000…02` from rounding up to the maximum.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Smallest sample count that supports the `q`-quantile.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(q, n) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Geometric mean of positive values; `None` when empty or any value is not
/// positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// How late a send went out against its schedule, in the unit of its
/// arguments; never negative (an early send is on time).
pub fn lateness(due: f64, sent: f64) -> f64 {
    (sent - due).max(0.0)
}

/// What a total leaves after the measured layers: `total - Σ layers`.
/// Negative when the layers, timed in isolation, add up to more than the
/// path they were taken from.
pub fn unattributed(total: f64, layers: &[f64]) -> f64 {
    total - layers.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(0.5, 20), 10);
        assert_eq!(nearest_rank(0.5, 21), 11);
        assert_eq!(nearest_rank(0.99, 1000), 990);
        // 0.9 * 10 is 9.000000000000002 in binary floating point.
        assert_eq!(nearest_rank(0.9, 10), 9);
        assert_eq!(nearest_rank(0.0, 5), 1);
        assert_eq!(nearest_rank(1.0, 5), 5);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_their_rank() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        let mut s = samples((1..=99).map(f64::from));
        assert!(s.percentile(0.9).is_err());
        s.push(100.0);
        assert_eq!(s.percentile(0.9), Ok(90.0));
        assert!(s.percentile(0.95).is_err());
        assert!(Samples::new().median().is_err());
    }

    #[test]
    fn percentile_ignores_insertion_order() {
        let mut s = samples((0..40).rev().map(f64::from));
        assert_eq!(s.median(), Ok(19.0));
        s.push(-1.0);
        assert_eq!(s.median(), Ok(19.0));
        assert_eq!(s.percentile(0.5), s.clone().median());
    }

    #[test]
    fn lower_window_quartile_ignores_slow_windows() {
        // Eight windows of 20 (values 1.00..1.19), windows 2, 3, 5, 6 and 7
        // slowed to 9.x, then a remainder of 3 that is dropped.
        let slow = [2, 3, 5, 6, 7];
        let seq: Vec<f64> = (0..163)
            .map(|i| if slow.contains(&(i / 20)) { 9.0 } else { 1.0 } + (i % 20) as f64 * 0.01)
            .collect();
        let p50s = window_percentiles(&seq, 8, 0.5).unwrap();
        assert_eq!(p50s.len(), 8);
        assert_eq!(p50s[0], 1.09);
        assert_eq!(p50s[2], 9.09);
        // Five slow windows of eight: the middle is slow, the lower
        // quartile (second of eight) is not.
        assert_eq!(nearest(p50s.iter().copied(), 0.5), 9.09);
        assert_eq!(nearest(p50s, 0.25), 1.09);
        // As one window, the slow stretch owns the top 62%.
        assert!(window_percentiles(&seq, 1, 0.5).unwrap()[0] >= 9.0);
        // Windows too small for the percentile, or empty, are an error.
        assert!(window_percentiles(&seq, 8, 0.9).is_err());
        assert!(window_percentiles(&seq[..3], 5, 0.5).is_err());
    }

    #[test]
    fn window_rates_count_replies_over_waiting_time() {
        // Two windows: 4 replies of 250 ms, then 2 replies of 500 ms and
        // two failures, which count as no reply and no time.
        let inf = f64::INFINITY;
        let seq = [250.0, 250.0, 250.0, 250.0, 500.0, inf, 500.0, inf];
        assert_eq!(window_rates(&seq, 2), Ok(vec![4.0, 2.0]));
        assert_eq!(nearest(window_rates(&seq, 2).unwrap(), 0.75), 4.0);
        assert!(window_rates(&[inf, inf], 1).is_err());
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[0.5, 2.0, 1.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::INFINITY]), None);
    }

    #[test]
    fn lateness_is_never_negative() {
        assert_eq!(lateness(10.0, 12.5), 2.5);
        assert_eq!(lateness(10.0, 9.0), 0.0);
        assert_eq!(lateness(10.0, 10.0), 0.0);
    }

    #[test]
    fn unattributed_is_the_remainder() {
        assert_eq!(unattributed(10.0, &[2.0, 3.0, 1.0]), 4.0);
        assert_eq!(unattributed(5.0, &[]), 5.0);
        assert_eq!(unattributed(1.0, &[0.75, 0.5]), -0.25);
    }
}
