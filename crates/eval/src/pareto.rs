//! Non-dominated (Pareto) frontiers of (solution cost, runtime) points.
//!
//! The paper: "a performance point A is *dominated* by B iff B has both
//! lower cost and lower runtime … the non-dominated frontier … allows the
//! reader to easily see which heuristic is preferable for a given runtime
//! regime."

/// A labeled (cost, runtime) performance point.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfPoint {
    /// Label, e.g. heuristic/configuration name.
    pub label: String,
    /// Solution cost (e.g. average cut).
    pub cost: f64,
    /// Runtime in seconds.
    pub seconds: f64,
}

impl PerfPoint {
    /// Creates a performance point.
    pub fn new(label: impl Into<String>, cost: f64, seconds: f64) -> Self {
        PerfPoint {
            label: label.into(),
            cost,
            seconds,
        }
    }

    /// `true` if `self` is dominated by `other` (strictly worse in both
    /// dimensions, per the paper's definition).
    pub fn is_dominated_by(&self, other: &PerfPoint) -> bool {
        other.cost < self.cost && other.seconds < self.seconds
    }
}

/// Returns the non-dominated frontier of `points`, sorted by runtime
/// ascending. Ties are kept (a point equal in both dimensions to a
/// frontier point is itself non-dominated under strict dominance).
pub fn pareto_frontier(points: &[PerfPoint]) -> Vec<PerfPoint> {
    let mut frontier: Vec<PerfPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| p.is_dominated_by(q)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        a.seconds
            .total_cmp(&b.seconds)
            .then(a.cost.total_cmp(&b.cost))
    });
    frontier
}

/// Renders a frontier report: all points, marking frontier members with
/// `*`, sorted by runtime.
pub fn frontier_report(points: &[PerfPoint]) -> String {
    let frontier = pareto_frontier(points);
    let mut sorted: Vec<&PerfPoint> = points.iter().collect();
    sorted.sort_by(|a, b| a.seconds.total_cmp(&b.seconds));
    let mut out = String::from("  cost        seconds     configuration\n");
    for p in sorted {
        let marker = if frontier.contains(p) { '*' } else { ' ' };
        out.push_str(&format!(
            "{marker} {:<11.2} {:<11.3} {}\n",
            p.cost, p.seconds, p.label
        ));
    }
    out.push_str("(* = on the non-dominated frontier)\n");
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict_in_both_dimensions() {
        let a = PerfPoint::new("a", 10.0, 5.0);
        let b = PerfPoint::new("b", 8.0, 4.0);
        let c = PerfPoint::new("c", 8.0, 5.0);
        assert!(a.is_dominated_by(&b));
        assert!(!a.is_dominated_by(&c)); // equal runtime: not dominated
        assert!(!b.is_dominated_by(&a));
    }

    #[test]
    fn frontier_filters_dominated_points() {
        let points = vec![
            PerfPoint::new("fast-bad", 100.0, 1.0),
            PerfPoint::new("slow-good", 50.0, 10.0),
            PerfPoint::new("dominated", 120.0, 12.0),
            PerfPoint::new("mid", 70.0, 4.0),
        ];
        let f = pareto_frontier(&points);
        let labels: Vec<&str> = f.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["fast-bad", "mid", "slow-good"]);
    }

    #[test]
    fn frontier_of_empty_is_empty() {
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        let p = vec![PerfPoint::new("only", 1.0, 1.0)];
        assert_eq!(pareto_frontier(&p), p);
    }

    #[test]
    fn identical_points_are_all_kept() {
        let p = vec![PerfPoint::new("a", 5.0, 5.0), PerfPoint::new("b", 5.0, 5.0)];
        assert_eq!(pareto_frontier(&p).len(), 2);
    }

    #[test]
    fn report_marks_frontier_members() {
        let points = vec![
            PerfPoint::new("good", 10.0, 1.0),
            PerfPoint::new("bad", 20.0, 2.0),
        ];
        let r = frontier_report(&points);
        assert!(r.contains("* 10.00"));
        assert!(r.contains("  20.00"));
    }
}
