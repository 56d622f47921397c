//! Distribution statistics shared by all analyses.

/// An empirical distribution over `f64` samples.
///
/// Construction sorts once; queries are then `O(log n)` or `O(1)`. All of
/// the paper's figures are percentile/CDF readouts of such distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    sorted: Vec<f64>,
}

impl Distribution {
    /// Builds a distribution from samples (NaNs are dropped).
    #[must_use]
    pub fn new(mut samples: Vec<f64>) -> Distribution {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(f64::total_cmp);
        Distribution { sorted: samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when no samples survived construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Arithmetic mean (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// The `q`-quantile with linear interpolation, `q` in `[0, 1]`
    /// (`None` when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.sorted.len() - 1) as f64;
        let low = pos.floor() as usize;
        let high = pos.ceil() as usize;
        let frac = pos - low as f64;
        let (Some(&below), Some(&above)) = (self.sorted.get(low), self.sorted.get(high)) else {
            return None;
        };
        Some(below * (1.0 - frac) + above * frac)
    }

    /// The median.
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Empirical CDF: the fraction of samples `<= x`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Complementary CDF: the fraction of samples `> x` (the quantity on
    /// Fig. 4c's y-axis).
    #[must_use]
    pub fn ccdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        1.0 - self.cdf(x)
    }

    /// `(x, CDF(x))` evaluated at every distinct sample value — the step
    /// points a CDF plot would draw.
    #[must_use]
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let mut points: Vec<(f64, f64)> = Vec::new();
        let n = self.sorted.len() as f64;
        for (seen, &x) in self.sorted.iter().enumerate() {
            let cdf = (seen + 1) as f64 / n;
            match points.last_mut() {
                Some(last) if last.0 == x => last.1 = cdf,
                _ => points.push((x, cdf)),
            }
        }
        points
    }
}

/// A five-number summary (the whisker set of Fig. 5a: p1, p25, p50, p75,
/// p99).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhiskerSummary {
    /// 1st percentile.
    pub p1: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl WhiskerSummary {
    /// Summarises a distribution (`None` when empty).
    #[must_use]
    pub fn of(dist: &Distribution) -> Option<WhiskerSummary> {
        Some(WhiskerSummary {
            p1: dist.quantile(0.01)?,
            p25: dist.quantile(0.25)?,
            p50: dist.quantile(0.50)?,
            p75: dist.quantile(0.75)?,
            p99: dist.quantile(0.99)?,
        })
    }

    /// The inter-quartile range — the "variance of the distribution"
    /// proxy Fig. 5a's discussion uses.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(values: &[f64]) -> Distribution {
        Distribution::new(values.to_vec())
    }

    #[test]
    fn quantiles_interpolate() {
        let d = dist(&[0.0, 10.0]);
        assert_eq!(d.quantile(0.0), Some(0.0));
        assert_eq!(d.quantile(0.5), Some(5.0));
        assert_eq!(d.quantile(1.0), Some(10.0));
        let d = dist(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(d.median(), Some(3.0));
        assert_eq!(d.quantile(0.25), Some(2.0));
    }

    #[test]
    fn empty_distribution_behaves() {
        let d = dist(&[]);
        assert!(d.is_empty());
        assert_eq!(d.mean(), None);
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.cdf(1.0), 0.0);
        assert!(d.cdf_points().is_empty());
    }

    #[test]
    fn nan_samples_are_dropped() {
        let d = Distribution::new(vec![1.0, f64::NAN, 3.0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.mean(), Some(2.0));
    }

    #[test]
    fn cdf_and_ccdf_are_complementary() {
        let d = dist(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(d.cdf(2.0), 0.75);
        assert_eq!(d.ccdf(2.0), 0.25);
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(3.0), 1.0);
        assert_eq!(d.ccdf(3.0), 0.0);
    }

    #[test]
    fn cdf_points_step_once_per_distinct_value() {
        let d = dist(&[1.0, 1.0, 2.0, 5.0]);
        assert_eq!(d.cdf_points(), vec![(1.0, 0.5), (2.0, 0.75), (5.0, 1.0)]);
    }

    #[test]
    fn whisker_summary() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        let w = WhiskerSummary::of(&dist(&values)).unwrap();
        assert_eq!(w.p50, 50.0);
        assert_eq!(w.p25, 25.0);
        assert_eq!(w.p75, 75.0);
        assert_eq!(w.p1, 1.0);
        assert_eq!(w.p99, 99.0);
        assert_eq!(w.iqr(), 50.0);
        assert!(WhiskerSummary::of(&dist(&[])).is_none());
    }

    #[test]
    fn mean_of_uniform() {
        let values: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(dist(&values).mean(), Some(5.0));
    }
}
