//! Speed-dependent ranking diagrams (Schreiber–Martin style).
//!
//! "Such methodologies use the distribution of c_τ, the best solution cost
//! achieved in time τ … this yields a useful ranking-diagram diagnostic
//! that depicts regions of (instance size, CPU time) dominance for each of
//! the heuristics being compared." The diagram is built from the BSF
//! curves of each heuristic on each instance: the winner of a cell is the
//! heuristic with the lowest expected best cut within that budget.

use crate::bsf::BsfCurve;

/// One instance's row in a ranking diagram: the BSF curves of all
/// competing heuristics on that instance.
#[derive(Clone, Debug)]
pub struct RankingRow {
    /// Instance name.
    pub instance: String,
    /// Instance size (vertex count) for ordering the axis.
    pub size: usize,
    /// One BSF curve per heuristic.
    pub curves: Vec<BsfCurve>,
}

/// A ranking diagram over (instance size, CPU budget).
#[derive(Clone, Debug)]
pub struct RankingDiagram {
    /// Budgets (seconds) forming the x axis, ascending.
    pub budgets: Vec<f64>,
    /// Rows sorted by instance size ascending.
    pub rows: Vec<RankingRow>,
}

/// Winner of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellWinner {
    /// Winning heuristic name.
    pub heuristic: String,
    /// Its expected best cut within the budget.
    pub expected_cut: f64,
}

impl RankingDiagram {
    /// Builds a diagram from rows and an explicit budget axis.
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty, rows is empty, or any row has no
    /// curves.
    pub fn new(mut rows: Vec<RankingRow>, budgets: Vec<f64>) -> Self {
        assert!(!budgets.is_empty(), "need at least one budget");
        assert!(!rows.is_empty(), "need at least one instance row");
        for r in &rows {
            assert!(!r.curves.is_empty(), "row {} has no curves", r.instance);
        }
        rows.sort_by_key(|r| r.size);
        RankingDiagram { budgets, rows }
    }

    /// Winner of the cell (`row`, `budget_index`): the affordable
    /// heuristic with the lowest expected best cut within the budget. If
    /// no heuristic can complete a start within the budget, the one with
    /// the cheapest single start wins by default (you must run something).
    ///
    /// # Panics
    ///
    /// Panics if the row's curves were emptied after
    /// [`RankingDiagram::new`] checked them.
    pub fn winner(&self, row: usize, budget_index: usize) -> CellWinner {
        let budget = self.budgets[budget_index];
        let row = &self.rows[row];
        let affordable = row
            .curves
            .iter()
            .filter_map(|c| c.at_budget(budget).map(|cut| (c.heuristic.clone(), cut)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let best = affordable.or_else(|| {
            let cheapest = row
                .curves
                .iter()
                .min_by(|a, b| a.min_budget().total_cmp(&b.min_budget()))?;
            Some((
                cheapest.heuristic.clone(),
                cheapest.points[0].expected_best_cut,
            ))
        });
        let Some(best) = best else {
            panic!("row {} has no curves", row.instance);
        };
        CellWinner {
            heuristic: best.0,
            expected_cut: best.1,
        }
    }

    /// Renders the dominance grid: rows = instances (size ascending),
    /// columns = budgets, cells = winning heuristic.
    pub fn render(&self) -> String {
        let mut out = String::from("instance (|V|)      ");
        for b in &self.budgets {
            out.push_str(&format!("| τ={b:<9.3}"));
        }
        out.push('\n');
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("{:<12} {:>6} ", row.instance, row.size));
            for j in 0..self.budgets.len() {
                let w = self.winner(i, j);
                out.push_str(&format!("| {:<10}", truncate(&w.heuristic, 10)));
            }
            out.push('\n');
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bsf::BsfPoint;

    fn curve(name: &str, pts: &[(usize, f64, f64)]) -> BsfCurve {
        BsfCurve {
            heuristic: name.into(),
            instance: "I".into(),
            points: pts
                .iter()
                .map(|&(starts, seconds, cut)| BsfPoint {
                    starts,
                    seconds,
                    expected_best_cut: cut,
                })
                .collect(),
        }
    }

    fn sample_diagram() -> RankingDiagram {
        // "fast" wins small budgets, "strong" wins large budgets.
        let fast = curve("fast", &[(1, 0.1, 100.0), (2, 0.2, 95.0), (10, 1.0, 90.0)]);
        let strong = curve("strong", &[(1, 0.5, 85.0), (2, 1.0, 80.0)]);
        RankingDiagram::new(
            vec![RankingRow {
                instance: "I".into(),
                size: 1000,
                curves: vec![fast, strong],
            }],
            vec![0.1, 0.5, 2.0],
        )
    }

    #[test]
    fn winner_switches_with_budget() {
        let d = sample_diagram();
        assert_eq!(d.winner(0, 0).heuristic, "fast");
        assert_eq!(d.winner(0, 1).heuristic, "strong");
        assert_eq!(d.winner(0, 2).heuristic, "strong");
    }

    #[test]
    fn render_contains_winners() {
        let d = sample_diagram();
        let grid = d.render();
        assert!(grid.contains("fast"));
        assert!(grid.contains("strong"));
        assert!(grid.contains("1000"));
    }

    #[test]
    fn rows_sort_by_size() {
        let c = curve("h", &[(1, 0.1, 1.0)]);
        let d = RankingDiagram::new(
            vec![
                RankingRow {
                    instance: "big".into(),
                    size: 100,
                    curves: vec![c.clone()],
                },
                RankingRow {
                    instance: "small".into(),
                    size: 10,
                    curves: vec![c],
                },
            ],
            vec![1.0],
        );
        assert_eq!(d.rows[0].instance, "small");
    }

    #[test]
    #[should_panic(expected = "at least one budget")]
    fn empty_budgets_panic() {
        let c = curve("h", &[(1, 0.1, 1.0)]);
        let _ = RankingDiagram::new(
            vec![RankingRow {
                instance: "i".into(),
                size: 1,
                curves: vec![c],
            }],
            vec![],
        );
    }
}
