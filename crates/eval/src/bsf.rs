//! Best-so-far (BSF) curves.
//!
//! Barr et al.'s most popular reporting style: "the solution cost that the
//! algorithm is expected to achieve in a multistart regime, versus the
//! given CPU time budget τ". Given the empirical distribution of single
//! starts `(cut, time)`, the expected best cut after `k` independent
//! starts is computed exactly from order statistics:
//!
//! `E[min of k draws] = Σ_c c · ( P(X ≥ c)^k − P(X > c)^k )`
//!
//! and the budget to run `k` starts is `k × mean(time)` (per the paper's
//! footnote: "a given time bound τ can be converted to a bound on the
//! number of starts" via average runtime).

use crate::runner::TrialSet;

/// A point on a BSF curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BsfPoint {
    /// Number of independent starts the budget affords.
    pub starts: usize,
    /// CPU budget τ in seconds (starts × mean single-start seconds).
    pub seconds: f64,
    /// Expected best cut achieved within the budget.
    pub expected_best_cut: f64,
}

/// A best-so-far curve for one heuristic on one instance.
#[derive(Clone, Debug)]
pub struct BsfCurve {
    /// Heuristic display name.
    pub heuristic: String,
    /// Instance name.
    pub instance: String,
    /// Curve points for `1..=max_starts` starts.
    pub points: Vec<BsfPoint>,
}

impl BsfCurve {
    /// Builds the exact BSF curve from a trial set, for budgets of
    /// `1..=max_starts` starts.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is empty or `max_starts == 0`.
    pub fn from_trials(trials: &TrialSet, max_starts: usize) -> BsfCurve {
        assert!(!trials.is_empty(), "need at least one trial");
        assert!(max_starts >= 1, "need at least one start");
        let mut cuts: Vec<u64> = trials.trials.iter().map(|t| t.cut).collect();
        cuts.sort_unstable();
        let n = cuts.len() as f64;
        let mean_secs = trials.avg_seconds();

        // Distinct values with their "at least" tail probabilities.
        let mut distinct: Vec<(u64, f64, f64)> = Vec::new(); // (c, P(X>=c), P(X>c))
        let mut i = 0;
        while i < cuts.len() {
            let c = cuts[i];
            let ge = (cuts.len() - i) as f64 / n;
            let mut j = i;
            while j + 1 < cuts.len() && cuts[j + 1] == c {
                j += 1;
            }
            let gt = (cuts.len() - j - 1) as f64 / n;
            distinct.push((c, ge, gt));
            i = j + 1;
        }

        let points = (1..=max_starts)
            .map(|k| {
                let expected: f64 = distinct
                    .iter()
                    .map(|&(c, ge, gt)| c as f64 * (ge.powi(k as i32) - gt.powi(k as i32)))
                    .sum();
                BsfPoint {
                    starts: k,
                    seconds: k as f64 * mean_secs,
                    expected_best_cut: expected,
                }
            })
            .collect();

        BsfCurve {
            heuristic: trials.heuristic.clone(),
            instance: trials.instance.clone(),
            points,
        }
    }

    /// Expected best cut at CPU budget `seconds` (step interpolation:
    /// largest affordable number of starts). Returns `None` when the
    /// budget cannot afford even one start — the heuristic produces no
    /// solution in that regime.
    pub fn at_budget(&self, seconds: f64) -> Option<f64> {
        let mut best = None;
        for p in &self.points {
            if p.seconds <= seconds {
                best = Some(p.expected_best_cut);
            }
        }
        best
    }

    /// Budget (seconds) of a single start — below this the heuristic is
    /// unaffordable.
    pub fn min_budget(&self) -> f64 {
        self.points[0].seconds
    }

    /// The paper's other Schreiber–Martin statistic: the probability that
    /// the best cut within the budget of `starts` starts is at most
    /// `target` — `P(c_τ ≤ C₀)` with τ = starts × mean time. Computed
    /// exactly from the empirical distribution:
    /// `1 − P(one start > target)^starts`.
    ///
    /// # Panics
    ///
    /// Panics if `starts == 0`.
    pub fn success_probability(&self, trials: &TrialSet, target: u64, starts: usize) -> f64 {
        assert!(starts >= 1, "need at least one start");
        let n = trials.trials.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let above = trials.trials.iter().filter(|t| t.cut > target).count() as f64;
        1.0 - (above / n).powi(starts as i32)
    }

    /// Renders the curve as a small ASCII plot (budget on x, expected best
    /// cut on y), for terminal reports.
    pub fn ascii_plot(&self, width: usize, height: usize) -> String {
        let width = width.max(16);
        let height = height.max(4);
        let ys: Vec<f64> = self.points.iter().map(|p| p.expected_best_cut).collect();
        let (ymin, ymax) = ys
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &y| {
                (lo.min(y), hi.max(y))
            });
        let span = (ymax - ymin).max(1e-9);
        let mut grid = vec![vec![b' '; width]; height];
        let n = self.points.len();
        for (i, p) in self.points.iter().enumerate() {
            let x = if n == 1 { 0 } else { i * (width - 1) / (n - 1) };
            let yf = (p.expected_best_cut - ymin) / span;
            let y = ((1.0 - yf) * (height - 1) as f64).round() as usize;
            grid[y.min(height - 1)][x] = b'*';
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{} on {} (expected best cut vs starts 1..{})\n",
            self.heuristic, self.instance, n
        ));
        for row in grid {
            out.extend(row.iter().map(|&b| char::from(b)));
            out.push('\n');
        }
        out.push_str(&format!("y: [{ymin:.1}, {ymax:.1}]\n"));
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::runner::{Trial, TrialSet};
    use std::time::Duration;

    fn set(cuts: &[u64]) -> TrialSet {
        TrialSet {
            heuristic: "H".into(),
            instance: "I".into(),
            trials: cuts
                .iter()
                .enumerate()
                .map(|(i, &cut)| Trial {
                    seed: i as u64,
                    cut,
                    balanced: true,
                    stopped: hypart_core::StopReason::Completed,
                    elapsed: Duration::from_millis(100),
                })
                .collect(),
            failed_trials: 0,
        }
    }

    #[test]
    fn one_start_expectation_is_the_mean() {
        let ts = set(&[10, 20, 30, 40]);
        let curve = BsfCurve::from_trials(&ts, 4);
        assert!((curve.points[0].expected_best_cut - 25.0).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let ts = set(&[5, 9, 14, 3, 7, 7, 12]);
        let curve = BsfCurve::from_trials(&ts, 10);
        for w in curve.points.windows(2) {
            assert!(w[1].expected_best_cut <= w[0].expected_best_cut + 1e-12);
        }
    }

    #[test]
    fn curve_approaches_the_minimum() {
        let ts = set(&[5, 9, 14, 3, 7]);
        let curve = BsfCurve::from_trials(&ts, 60);
        let last = curve.points.last().unwrap().expected_best_cut;
        assert!((last - 3.0).abs() < 0.1, "got {last}");
    }

    #[test]
    fn two_start_expectation_exact() {
        // cuts {1, 2}: min of 2 draws with replacement:
        // P(min=1) = 1 - (1/2)^2 = 3/4; E = 1*3/4 + 2*1/4 = 1.25
        let ts = set(&[1, 2]);
        let curve = BsfCurve::from_trials(&ts, 2);
        assert!((curve.points[1].expected_best_cut - 1.25).abs() < 1e-12);
    }

    #[test]
    fn budget_interpolation_is_stepwise() {
        let ts = set(&[10, 20]); // mean time 0.1 s
        let curve = BsfCurve::from_trials(&ts, 5);
        assert_eq!(curve.at_budget(0.0), None); // can't afford one start
        assert_eq!(
            curve.at_budget(0.35),
            Some(curve.points[2].expected_best_cut)
        );
        assert_eq!(
            curve.at_budget(99.0),
            Some(curve.points[4].expected_best_cut)
        );
        assert!((curve.min_budget() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn seconds_scale_linearly_with_starts() {
        let ts = set(&[4, 4, 4]);
        let curve = BsfCurve::from_trials(&ts, 3);
        assert!((curve.points[2].seconds - 3.0 * curve.points[0].seconds).abs() < 1e-9);
    }

    #[test]
    fn success_probability_matches_hand_computation() {
        // cuts {3, 5, 9, 14}: P(one start <= 5) = 1/2.
        let ts = set(&[3, 5, 9, 14]);
        let curve = BsfCurve::from_trials(&ts, 4);
        assert!((curve.success_probability(&ts, 5, 1) - 0.5).abs() < 1e-12);
        // Two starts: 1 - (1/2)^2 = 3/4.
        assert!((curve.success_probability(&ts, 5, 2) - 0.75).abs() < 1e-12);
        // Target below the min: probability 0 at any number of starts.
        assert_eq!(curve.success_probability(&ts, 2, 50), 0.0);
        // Target at or above the max: probability 1 immediately.
        assert_eq!(curve.success_probability(&ts, 14, 1), 1.0);
    }

    #[test]
    fn success_probability_is_monotone_in_starts() {
        let ts = set(&[5, 9, 14, 3, 7, 7, 12]);
        let curve = BsfCurve::from_trials(&ts, 4);
        let mut prev = 0.0;
        for k in 1..=20 {
            let p = curve.success_probability(&ts, 7, k);
            assert!(p + 1e-12 >= prev, "not monotone at {k}");
            prev = p;
        }
    }

    #[test]
    fn ascii_plot_renders() {
        let ts = set(&[5, 9, 14, 3, 7]);
        let curve = BsfCurve::from_trials(&ts, 8);
        let plot = curve.ascii_plot(40, 8);
        assert!(plot.contains('*'));
        assert!(plot.contains("H on I"));
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn empty_trials_panic() {
        let ts = set(&[]);
        let _ = BsfCurve::from_trials(&ts, 3);
    }
}
