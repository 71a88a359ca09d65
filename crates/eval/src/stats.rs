//! Summary statistics and significance testing.
//!
//! The paper (citing Brglez) calls for statistical analyses that separate
//! genuine heuristic improvement from randomization noise; the Wilcoxon
//! rank-sum test here is the standard nonparametric tool for comparing two
//! heuristics' cut distributions.

/// Five-number-plus summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Median (midpoint of the two central order statistics for even n).
    pub median: f64,
}

impl Summary {
    /// Computes the summary of `xs`. Returns `None` for an empty sample.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len();
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Summary {
            n,
            min: sorted[0],
            max: sorted[n - 1],
            mean,
            std_dev: var.sqrt(),
            median,
        })
    }

    /// Quantile `q ∈ [0, 1]` of `xs` by linear interpolation.
    ///
    /// Returns `None` for an empty sample.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Result of a two-sided Wilcoxon (Mann–Whitney) rank-sum test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WilcoxonResult {
    /// The Mann–Whitney U statistic of the first sample.
    pub u: f64,
    /// Normal-approximation z-score (tie-corrected).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
}

impl WilcoxonResult {
    /// `true` if the difference is significant at level `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Two-sided Wilcoxon rank-sum test of samples `xs` vs `ys` with the
/// normal approximation (adequate for the n ≥ 20 trial counts used in
/// partitioning experiments). Returns `None` if either sample is empty.
pub fn wilcoxon_rank_sum(xs: &[f64], ys: &[f64]) -> Option<WilcoxonResult> {
    if xs.is_empty() || ys.is_empty() {
        return None;
    }
    let n1 = xs.len() as f64;
    let n2 = ys.len() as f64;
    // Rank the pooled sample with midranks for ties.
    let mut pooled: Vec<(f64, usize)> = xs
        .iter()
        .map(|&x| (x, 0usize))
        .chain(ys.iter().map(|&y| (y, 1usize)))
        .collect();
    pooled.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = pooled.len();
    let mut ranks = vec![0.0f64; total];
    let mut tie_correction = 0.0f64;
    let mut i = 0;
    while i < total {
        let mut j = i;
        while j + 1 < total && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = midrank;
        }
        let t = (j - i + 1) as f64;
        tie_correction += t.powi(3) - t;
        i = j + 1;
    }
    let r1: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, grp), _)| *grp == 0)
        .map(|(_, &r)| r)
        .sum();
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;
    let mean_u = n1 * n2 / 2.0;
    let n = n1 + n2;
    let var_u = n1 * n2 / 12.0 * ((n + 1.0) - tie_correction / (n * (n - 1.0)));
    if var_u <= 0.0 {
        // All observations identical: no evidence of difference.
        return Some(WilcoxonResult {
            u: u1,
            z: 0.0,
            p_value: 1.0,
        });
    }
    let z = (u1 - mean_u) / var_u.sqrt();
    let p = 2.0 * (1.0 - std_normal_cdf(z.abs()));
    Some(WilcoxonResult {
        u: u1,
        z,
        p_value: p.clamp(0.0, 1.0),
    })
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf approximation
/// (|error| < 1.5e-7, ample for significance reporting).
fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_sample_has_zero_std() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(Summary::quantile(&xs, 0.0).unwrap(), 10.0);
        assert_eq!(Summary::quantile(&xs, 1.0).unwrap(), 50.0);
        assert_eq!(Summary::quantile(&xs, 0.5).unwrap(), 30.0);
        assert!((Summary::quantile(&xs, 0.25).unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn wilcoxon_detects_clear_separation() {
        let xs: Vec<f64> = (0..30).map(|i| 100.0 + i as f64).collect();
        let ys: Vec<f64> = (0..30).map(|i| 500.0 + i as f64).collect();
        let w = wilcoxon_rank_sum(&xs, &ys).unwrap();
        assert!(w.significant_at(0.001), "p = {}", w.p_value);
        assert!(w.z < 0.0); // xs are smaller
    }

    #[test]
    fn wilcoxon_sees_no_difference_in_identical_samples() {
        let xs = vec![5.0; 20];
        let ys = vec![5.0; 20];
        let w = wilcoxon_rank_sum(&xs, &ys).unwrap();
        assert!((w.p_value - 1.0).abs() < 1e-9);
        assert!(!w.significant_at(0.05));
    }

    #[test]
    fn wilcoxon_handles_interleaved_samples() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 2.0).collect();
        let ys: Vec<f64> = (0..40).map(|i| i as f64 * 2.0 + 1.0).collect();
        let w = wilcoxon_rank_sum(&xs, &ys).unwrap();
        assert!(!w.significant_at(0.05), "p = {}", w.p_value);
    }

    #[test]
    fn wilcoxon_empty_is_none() {
        assert!(wilcoxon_rank_sum(&[], &[1.0]).is_none());
        assert!(wilcoxon_rank_sum(&[1.0], &[]).is_none());
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((std_normal_cdf(1.959_964) - 0.975).abs() < 1e-4);
        assert!(std_normal_cdf(-8.0) < 1e-10);
    }
}
