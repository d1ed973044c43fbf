//! Table II — constrained Pareto solutions of Random, NSGA-II, and MOBO
//! across {ResNet, MobileNet, Xception} × {GEMM, CONV2D} (§VII-C: 40
//! trials, NSGA-II population 5, MOBO with a 10-sample prior, power cap
//! 1E4 mW).

use accel_model::tech::TechParams;
use dse::problem::OptimizerResult;
use hasco::input::GenerationMethod;
use hasco::report::Table;
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::suites;
use tensor_ir::workload::{TensorApp, Workload};

use crate::common::{subsample, Config, METHODS};
use crate::Scale;

/// Best feasible (latency, power, area) found by one method.
#[derive(Debug, Clone, Copy)]
pub struct Best {
    /// Latency in cycles.
    pub latency: f64,
    /// Power in mW.
    pub power: f64,
    /// Area in mm².
    pub area: f64,
}

/// One (app, intrinsic) row of the table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application name.
    pub app: String,
    /// Intrinsic name.
    pub intrinsic: IntrinsicKind,
    /// Results for (random, nsga2, mobo).
    pub results: [Best; 3],
}

/// The regenerated table.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// All rows.
    pub rows: Vec<Row>,
    /// The power cap applied (mW).
    pub power_cap_mw: f64,
}

fn best_feasible(history: &OptimizerResult, power_cap: f64) -> Best {
    let pick = history
        .evaluations
        .iter()
        .filter(|e| e.objectives[1] <= power_cap)
        .min_by(|a, b| {
            a.objectives[0]
                .partial_cmp(&b.objectives[0])
                .expect("finite")
        })
        .or_else(|| {
            history.evaluations.iter().min_by(|a, b| {
                a.objectives[1]
                    .partial_cmp(&b.objectives[1])
                    .expect("finite")
            })
        })
        .expect("history non-empty");
    Best {
        latency: pick.objectives[0],
        power: pick.objectives[1],
        area: pick.objectives[2],
    }
}

/// Runs the table: every (intrinsic, app, method) cell is one job on one
/// engine.
pub fn run(cfg: &Config) -> Table2 {
    let (trials, layers) = match cfg.scale {
        Scale::Quick => (18, 3),
        Scale::Paper => (40, 6),
    };
    let power_cap_mw = 1.0e4;
    let apps: Vec<(&str, Vec<Workload>)> = vec![
        ("resnet", subsample(&suites::resnet50_convs(), layers)),
        ("mobilenet", subsample(&suites::mobilenet_convs(), layers)),
        ("xception", subsample(&suites::xception_convs(), layers)),
    ];
    let mut row_keys = Vec::new();
    let mut requests = Vec::new();
    for (kind, method) in [
        (IntrinsicKind::Gemm, GenerationMethod::Gemmini),
        (
            IntrinsicKind::Conv2d,
            GenerationMethod::Chisel(IntrinsicKind::Conv2d),
        ),
    ] {
        for (app, workloads) in &apps {
            for optimizer in METHODS {
                let app_desc = TensorApp::new(*app, workloads.clone());
                requests.push(
                    cfg.dse_request(
                        app_desc,
                        method,
                        optimizer,
                        2,
                        trials,
                        &TechParams::default(),
                    )
                    .with_label(format!("{app}/{kind}/{optimizer}")),
                );
            }
            row_keys.push((app.to_string(), kind));
        }
    }
    let solutions = cfg.run_jobs(requests);
    let rows = row_keys
        .into_iter()
        .zip(solutions.chunks(METHODS.len()))
        .map(|((app, intrinsic), cell)| Row {
            app,
            intrinsic,
            results: [0, 1, 2].map(|m| best_feasible(&cell[m].hw_history, power_cap_mw)),
        })
        .collect();
    Table2 { rows, power_cap_mw }
}

/// Renders the table.
pub fn render(t: &Table2) -> String {
    let mut out = Table::new(&[
        "App",
        "Intrinsic",
        "L random",
        "L nsga2",
        "L mobo",
        "P random",
        "P nsga2",
        "P mobo",
        "A random",
        "A nsga2",
        "A mobo",
    ]);
    for r in &t.rows {
        let mut cells = vec![r.app.clone(), r.intrinsic.to_string()];
        for f in [
            |b: &Best| format!("{:.2e}", b.latency),
            |b: &Best| format!("{:.0}", b.power),
            |b: &Best| format!("{:.1}", b.area),
        ] {
            for b in &r.results {
                cells.push(f(b));
            }
        }
        out.row(cells);
    }
    format!(
        "Table II: constrained Pareto solutions (power cap {} mW; L in cycles)\n{}",
        t.power_cap_mw,
        out.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobo_never_clearly_loses_latency() {
        // Paper: "MOBO always outperforms the random search and NSGAII in
        // our evaluations" — we require it to win or tie (within 10 %) on a
        // majority of rows against each competitor.
        let t = run(&Config::at(Scale::Quick));
        let mut vs_random = 0;
        let mut vs_nsga = 0;
        for r in &t.rows {
            let [rand, nsga, mobo] = r.results;
            if mobo.latency <= rand.latency * 1.1 {
                vs_random += 1;
            }
            if mobo.latency <= nsga.latency * 1.1 {
                vs_nsga += 1;
            }
        }
        assert!(
            vs_random * 2 >= t.rows.len(),
            "MOBO vs random: {vs_random}/{}",
            t.rows.len()
        );
        assert!(
            vs_nsga * 2 >= t.rows.len(),
            "MOBO vs nsga2: {vs_nsga}/{}",
            t.rows.len()
        );
    }

    #[test]
    fn table_has_six_rows() {
        let t = run(&Config::at(Scale::Quick));
        assert_eq!(t.rows.len(), 6);
        let s = render(&t);
        assert!(s.contains("resnet") && s.contains("conv2d"));
    }
}
