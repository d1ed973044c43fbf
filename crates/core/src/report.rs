//! Plain-text table formatting for the experiment harnesses (the bench
//! binaries print paper-style rows through these helpers), plus the
//! runtime-subsystem report attached to every solution.

use accel_model::BackendKind;

/// Execution statistics of one co-design run: how the cost backends and
/// the staging policy were used. Like the rest of a
/// [`Solution`](crate::Solution), every field is independent of thread
/// count, scheduling and warm state; wall-clock, steal counts and memo
/// hits live in telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Feasible hardware design points evaluated (full app metrics).
    pub hw_evaluations: usize,
    /// Software explorations requested through the screening backend,
    /// memoized or not (one per (design point, workload) pair).
    pub sw_explorations: usize,
    /// Software explorations re-run at high fidelity on the top-k
    /// survivors of each screened batch (0 when staging is off).
    pub refine_explorations: usize,
    /// The screening cost backend.
    pub backend: BackendKind,
    /// The refinement backend, when fidelity staging is on.
    pub refine_backend: Option<BackendKind>,
    /// The refine budget each staged batch used, in batch order (empty
    /// when staging is off or the budget is fixed).
    pub refine_topk_trajectory: Vec<usize>,
    /// Surrogate screen-tier training-set size (0 when the screen tier
    /// is not a surrogate).
    pub surrogate_samples: usize,
    /// Whether the surrogate cleared cross-validation and served GP
    /// predictions.
    pub surrogate_trusted: bool,
}

runtime::wire_struct!(RunStats {
    hw_evaluations,
    sw_explorations,
    refine_explorations,
    backend,
    refine_backend,
    refine_topk_trajectory,
    surrogate_samples,
    surrogate_trusted,
});

/// Campaign-level rollup of per-scenario [`RunStats`].
///
/// A single scenario's `RunStats` is a faithful report of *that job*; a
/// campaign's totals cannot be read off any one of them, and summing
/// naively over every outcome double-counts deduplicated scenarios
/// (their solutions are clones of a representative that ran once).
/// [`CampaignStats::add_run`] therefore folds executed scenarios in full
/// and deduplicated ones only into the dedup counter, so every total is
/// monotone in work actually performed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    /// Scenarios in the campaign (executed + deduplicated).
    pub scenarios: usize,
    /// Scenarios that actually ran a job.
    pub executed: usize,
    /// Scenarios answered by cloning an identical earlier scenario.
    pub deduplicated: usize,
    /// Feasible hardware design points evaluated, summed over executed
    /// scenarios.
    pub hw_evaluations: usize,
    /// Screen-tier software explorations, summed over executed scenarios.
    pub sw_explorations: usize,
    /// High-fidelity re-evaluations, summed over executed scenarios.
    pub refine_explorations: usize,
}

impl CampaignStats {
    /// Folds one scenario's stats into the rollup. `deduplicated`
    /// scenarios count toward `scenarios`/`deduplicated` only — their
    /// stats describe the representative job, which was already folded.
    pub fn add_run(&mut self, stats: &RunStats, deduplicated: bool) {
        self.scenarios += 1;
        if deduplicated {
            self.deduplicated += 1;
            return;
        }
        self.executed += 1;
        self.hw_evaluations += stats.hw_evaluations;
        self.sw_explorations += stats.sw_explorations;
        self.refine_explorations += stats.refine_explorations;
    }

    /// Fraction of scenarios answered without running a job.
    pub fn dedup_rate(&self) -> f64 {
        if self.scenarios == 0 {
            0.0
        } else {
            self.deduplicated as f64 / self.scenarios as f64
        }
    }

    /// Renders the rollup as a report table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["campaign", "value"]);
        t.row(vec!["scenarios".into(), self.scenarios.to_string()]);
        t.row(vec!["executed".into(), self.executed.to_string()]);
        t.row(vec![
            "deduplicated".into(),
            format!("{} ({:.1}%)", self.deduplicated, self.dedup_rate() * 100.0),
        ]);
        t.row(vec![
            "hw evaluations".into(),
            self.hw_evaluations.to_string(),
        ]);
        t.row(vec![
            "sw explorations".into(),
            self.sw_explorations.to_string(),
        ]);
        t.row(vec!["refined".into(), self.refine_explorations.to_string()]);
        t.render()
    }
}

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    /// Panics when the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{:<width$}", s, width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as the paper writes speedups, e.g. `1.25X`.
pub fn speedup(baseline: f64, improved: f64) -> String {
    if improved <= 0.0 {
        return "inf".into();
    }
    format!("{:.2}X", baseline / improved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn campaign_stats_skip_deduplicated_scenarios() {
        let executed = RunStats {
            hw_evaluations: 10,
            sw_explorations: 40,
            refine_explorations: 8,
            ..RunStats::default()
        };
        let mut rollup = CampaignStats::default();
        rollup.add_run(&executed, false);
        rollup.add_run(&executed, false);
        // The dedup clone carries the representative's stats — folding
        // them again would double-count, so only the counter moves.
        rollup.add_run(&executed, true);
        assert_eq!(rollup.scenarios, 3);
        assert_eq!(rollup.executed, 2);
        assert_eq!(rollup.deduplicated, 1);
        assert_eq!(rollup.hw_evaluations, 20);
        assert_eq!(rollup.sw_explorations, 80);
        assert_eq!(rollup.refine_explorations, 16);
        assert!((rollup.dedup_rate() - 1.0 / 3.0).abs() < 1e-12);
        let s = rollup.render();
        assert!(s.contains("deduplicated") && s.contains("33.3%"));
        assert!(s.contains("hw evaluations") && s.contains("20"));
    }

    #[test]
    fn speedup_formats_like_paper() {
        assert_eq!(speedup(125.0, 100.0), "1.25X");
        assert_eq!(speedup(1.0, 0.0), "inf");
    }
}
