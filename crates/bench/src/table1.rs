//! Table I — benchmark tensor computations: notation, workload counts, and
//! compute-complexity ranges.

use hasco::report::Table;
use tensor_ir::complexity::format_ops;
use tensor_ir::suites;

use crate::common::Config;

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Row {
    /// Computation name.
    pub name: String,
    /// The paper-style notation.
    pub notation: String,
    /// Workload count.
    pub workloads: usize,
    /// (min, max) FLOPs.
    pub complexity: (u64, u64),
}

/// The regenerated Table I.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The rows, in paper order (MTTKRP, TTM, 2D conv, GEMM).
    pub rows: Vec<Row>,
}

/// Regenerates Table I. The configuration is irrelevant here (the table
/// is cheap).
pub fn run(_cfg: &Config) -> Table1 {
    let rows = suites::table1_apps()
        .into_iter()
        .map(|app| {
            let notation = app.workloads[0].comp.notation();
            let complexity = app.complexity_range();
            Row {
                name: app.name.clone(),
                notation,
                workloads: app.len(),
                complexity,
            }
        })
        .collect();
    Table1 { rows }
}

/// Renders the table as text.
pub fn render(t: &Table1) -> String {
    let mut out = Table::new(&["Computation", "Notation", "Workloads", "Compute Complexity"]);
    for r in &t.rows {
        let wl = if r.name == "conv2d" {
            format!("{} + CNNs", r.workloads)
        } else {
            r.workloads.to_string()
        };
        out.row(vec![
            r.name.clone(),
            r.notation.clone(),
            wl,
            format!(
                "{} - {}",
                format_ops(r.complexity.0),
                format_ops(r.complexity.1)
            ),
        ]);
    }
    format!("Table I: Benchmark Tensor Computations\n{}", out.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn has_four_rows_with_paper_ranges() {
        let t = run(&Config::at(Scale::Quick));
        assert_eq!(t.rows.len(), 4);
        let by_name = |n: &str| t.rows.iter().find(|r| r.name == n).unwrap();
        // Paper: MTTKRP 255M-5.9G, TTM 16M-8.6G, conv 87M-3.7G, GEMM 16K-4.3G.
        assert!(by_name("mttkrp").complexity.0 > 200_000_000);
        assert!(by_name("ttm").complexity.1 > 8_000_000_000);
        assert!(by_name("gemm").complexity.0 < 20_000);
        assert!(by_name("conv2d").complexity.1 > 3_500_000_000);
    }

    #[test]
    fn render_contains_notation() {
        let s = render(&run(&Config::at(Scale::Quick)));
        assert!(s.contains("sum_{k,l} A[i,k,l] * B[l,j] * C[k,j]"));
        assert!(s.contains("+ CNNs"));
    }
}
