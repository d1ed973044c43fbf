//! Fig. 9 — metric landscapes over (PE shape × banks) and the final points
//! chosen by Random, NSGA-II, and MOBO (§VII-C, 20-trial runs, MOBO with a
//! 5-sample prior).
//!
//! The paper's key landscape observation: latency *increases again* when
//! the generated convolution accelerators get more PEs and banks than the
//! small Xception convolutions can use — padding and fill/drain overheads
//! win. The DSE comparison reports how close each method's final Pareto
//! set sits to the ground-truth front.

use std::collections::BTreeMap;

use dse::mobo::Mobo;
use dse::nsga2::Nsga2;
use dse::problem::{OptimizerResult, Point, Problem, SearchSpace};
use dse::random::RandomSearch;
use dse::{hypervolume, Optimizer};
use hasco::report::Table;

use crate::common::Config;
use crate::fig8::{ground_truth, GroundTruth};

/// The cached-ground-truth DSE problem.
struct CachedProblem {
    space: SearchSpace,
    table: BTreeMap<Point, Vec<f64>>,
}

impl Problem for CachedProblem {
    fn space(&self) -> &SearchSpace {
        &self.space
    }
    fn num_objectives(&self) -> usize {
        3
    }
    fn evaluate(&mut self, point: &Point) -> Option<Vec<f64>> {
        self.table.get(point).cloned()
    }
}

/// Results of one DSE method on the landscape.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name.
    pub name: String,
    /// The run history.
    pub history: OptimizerResult,
    /// Final hypervolume against the shared reference point.
    pub final_hv: f64,
}

/// The full experiment.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// The ground-truth sweep.
    pub ground_truth: GroundTruth,
    /// Hypervolume of the true Pareto front.
    pub true_front_hv: f64,
    /// Per-method results (random, nsga2, mobo).
    pub methods: Vec<MethodResult>,
}

fn reference_point(gt: &GroundTruth) -> Vec<f64> {
    let mut r = [f64::NEG_INFINITY; 3];
    for p in &gt.points {
        r[0] = r[0].max(p.latency);
        r[1] = r[1].max(p.power);
        r[2] = r[2].max(p.area);
    }
    r.iter().map(|v| v * 1.01).collect()
}

/// Runs the three methods over the cached landscape.
pub fn run(cfg: &Config) -> Fig9 {
    let gt = ground_truth(cfg);
    let trials = 20;
    let table: BTreeMap<Point, Vec<f64>> = gt
        .points
        .iter()
        .map(|p| (p.point.clone(), vec![p.latency, p.power, p.area]))
        .collect();
    let space = SearchSpace::new(vec![8, 8]);
    let reference = reference_point(&gt);
    let all_objs: Vec<Vec<f64>> = gt
        .points
        .iter()
        .map(|p| vec![p.latency, p.power, p.area])
        .collect();
    let true_front_hv = hypervolume::hypervolume(&all_objs, &reference);

    let mut methods = Vec::new();
    /// A named optimizer run over the cached landscape problem.
    type MethodRun<'a> = (
        &'a str,
        Box<dyn FnMut(&mut CachedProblem) -> OptimizerResult>,
    );
    let runs: Vec<MethodRun> = vec![
        (
            "random",
            Box::new(move |p: &mut CachedProblem| RandomSearch::new(42).run(p, trials)),
        ),
        (
            "nsga2",
            Box::new(move |p: &mut CachedProblem| Nsga2::new(42).run(p, trials)),
        ),
        (
            "mobo",
            Box::new(move |p: &mut CachedProblem| {
                Mobo::new(42).with_prior_samples(5).run(p, trials)
            }),
        ),
    ];
    for (name, mut f) in runs {
        let mut problem = CachedProblem {
            space: space.clone(),
            table: table.clone(),
        };
        let history = f(&mut problem);
        let final_hv = *history
            .hypervolume_history(&reference)
            .last()
            .expect("at least one evaluation");
        methods.push(MethodResult {
            name: name.into(),
            history,
            final_hv,
        });
    }
    Fig9 {
        ground_truth: gt,
        true_front_hv,
        methods,
    }
}

/// Renders the landscape row for one metric as an 8×8 grid.
fn render_grid(
    gt: &GroundTruth,
    metric: impl Fn(&crate::fig8::GroundTruthPoint) -> f64,
    name: &str,
) -> String {
    let mut sides: Vec<u64> = gt.points.iter().map(|p| p.pe_side).collect();
    sides.sort_unstable();
    sides.dedup();
    let mut banks: Vec<u64> = gt.points.iter().map(|p| p.banks).collect();
    banks.sort_unstable();
    banks.dedup();
    let hi = gt
        .points
        .iter()
        .map(&metric)
        .fold(0.0f64, f64::max)
        .max(1e-300);
    let mut out = format!("{name} (normalized, rows = PE side asc, cols = banks asc):\n");
    for &s in &sides {
        let mut row = format!("  {s:>2}x{s:<2} ");
        for &b in &banks {
            let v = gt
                .points
                .iter()
                .find(|p| p.pe_side == s && p.banks == b)
                .map(&metric)
                .unwrap_or(f64::NAN);
            row.push_str(&format!("{:>6.3}", v / hi));
        }
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Renders the figure.
pub fn render(f: &Fig9) -> String {
    let mut s = String::from("Fig. 9: Metric landscapes and DSE final points (20 trials)\n\n");
    s.push_str(&render_grid(&f.ground_truth, |p| p.latency, "(a) latency"));
    s.push_str(&render_grid(&f.ground_truth, |p| p.power, "(b) power"));
    s.push_str(&render_grid(&f.ground_truth, |p| p.area, "(c) area"));
    let mut t = Table::new(&["method", "final HV / true-front HV", "pareto pts"]);
    for m in &f.methods {
        t.row(vec![
            m.name.clone(),
            format!("{:.3}", m.final_hv / f.true_front_hv.max(1e-300)),
            m.history.pareto_front().len().to_string(),
        ]);
    }
    s.push('\n');
    s.push_str(&t.render());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn overprovisioned_arrays_hit_diminishing_returns() {
        // §VII-C: "As the PEs and banks become over-provisioned, the
        // contour color would remain the same" — the normal case the paper
        // describes. (Their specific tiny-workload latency *increase* needs
        // the absolute FPGA overheads; we reproduce the plateau: the last
        // doubling of the array buys far less than the first.)
        let f = run(&Config::at(Scale::Quick));
        let gt = &f.ground_truth;
        let at = |side: u64, banks: u64| {
            gt.points
                .iter()
                .find(|p| p.pe_side == side && p.banks == banks)
                .map(|p| p.latency)
                .expect("point exists")
        };
        let early_gain = at(4, 8) / at(8, 8); // 4x PEs
        let late_gain = at(16, 8) / at(32, 8); // 4x PEs again
        assert!(
            late_gain < early_gain * 0.85,
            "no plateau: early {early_gain} vs late {late_gain}"
        );
        // Power and area keep growing regardless.
        let p = |side: u64| {
            gt.points
                .iter()
                .find(|q| q.pe_side == side && q.banks == 8)
                .unwrap()
        };
        assert!(p(32).power > p(16).power && p(16).power > p(8).power);
        assert!(p(32).area > p(16).area);
    }

    #[test]
    fn mobo_front_is_closest_to_true_front() {
        let f = run(&Config::at(Scale::Quick));
        let hv = |n: &str| f.methods.iter().find(|m| m.name == n).unwrap().final_hv;
        assert!(
            hv("mobo") >= hv("random"),
            "mobo {} vs random {}",
            hv("mobo"),
            hv("random")
        );
        assert!(hv("mobo") > 0.5 * f.true_front_hv);
    }

    #[test]
    fn render_contains_grids_and_methods() {
        let s = render(&run(&Config::at(Scale::Quick)));
        assert!(s.contains("(a) latency"));
        assert!(s.contains("mobo"));
    }
}
