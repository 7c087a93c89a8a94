//! Order statistics with the benchmark's sample-count rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it: the p50 of per-operation latencies needs 20 samples,
//! the p90 needs 100. Medians of repeated set-ups or rounds are plain
//! medians of a handful of repetitions and state their count instead.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `q` in `(0, 1)`, or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        let rank = ((n as f64) * q).ceil().max(1.0) as usize;
        if n == 0 || n - rank.min(n) < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank - 1])
    }

    /// The median of any non-empty sample (for repetitions, not for
    /// per-operation latencies; see the module docs).
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        })
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_beyond() {
        let s = Sample::new((1..=19).map(f64::from).collect());
        assert_eq!(s.percentile(0.5), None);
        let s = Sample::new((1..=20).map(f64::from).collect());
        assert_eq!(s.percentile(0.5), Some(10.0));
        let s = Sample::new((1..=99).map(f64::from).collect());
        assert_eq!(s.percentile(0.9), None);
        let s = Sample::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.percentile(0.9), Some(90.0));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(Sample::new(vec![3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(Sample::new(vec![4.0, 1.0]).median(), Some(2.5));
        assert_eq!(Sample::new(Vec::new()).median(), None);
    }
}
