//! Fig. 10 — hypervolume convergence of Random, NSGA-II, and MOBO on the
//! ResNet + GEMM-intrinsic hardware DSE (§VII-C: 40 trials, NSGA-II
//! population 5, MOBO with a 10-sample prior).
//!
//! Headline numbers to reproduce in shape: MOBO reaches NSGA-II's *final*
//! hypervolume in ~2.5X fewer trials and ends ~1.19X higher.

use accel_model::tech::TechParams;
use dse::problem::OptimizerResult;
use hasco::codesign::OptimizerKind;
use hasco::input::GenerationMethod;
use tensor_ir::suites;
use tensor_ir::workload::TensorApp;

use crate::common::{subsample, Config, METHODS};
use crate::Scale;

/// One method's convergence curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Method name.
    pub name: String,
    /// Hypervolume after each evaluation.
    pub hv: Vec<f64>,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Curves for random, nsga2, mobo.
    pub curves: Vec<Curve>,
    /// MOBO final HV / NSGA-II final HV (paper: 1.19X).
    pub hv_ratio_mobo_nsga: f64,
    /// Trial at which MOBO first reaches NSGA-II's final HV
    /// (paper: trial ~16 of 40, i.e. 2.5X fewer).
    pub mobo_crossover_trial: Option<usize>,
    /// `--tech-sweep` axis: per technology profile, MOBO's final
    /// hypervolume relative to random search at the same node (each node
    /// gets its own staged pipeline and reference point, so only the
    /// within-node ratio is comparable). Empty without the sweep.
    pub tech_sweep: Vec<(String, f64)>,
}

fn reference(histories: &[OptimizerResult]) -> Vec<f64> {
    let mut r = [f64::NEG_INFINITY; 3];
    for h in histories {
        for e in &h.evaluations {
            for (ri, &v) in r.iter_mut().zip(e.objectives.iter()) {
                *ri = ri.max(v);
            }
        }
    }
    r.iter().map(|v| v * 1.01).collect()
}

/// Runs the comparison: every method's run, and with `--tech-sweep` a
/// MOBO and a random-search run per technology profile, is one job on
/// one engine. All jobs fork the same warm state, so no run's surrogate
/// screen inherits another run's training.
pub fn run(cfg: &Config) -> Fig10 {
    let (trials, layers) = match cfg.scale {
        Scale::Quick => (14, 4),
        Scale::Paper => (40, 8),
    };
    let app = TensorApp::new("resnet", subsample(&suites::resnet50_convs(), layers));
    let request = |kind: OptimizerKind, tech: &TechParams| {
        cfg.dse_request(
            app.clone(),
            GenerationMethod::Gemmini,
            kind,
            10,
            trials,
            tech,
        )
    };
    let mut requests: Vec<_> = METHODS
        .iter()
        .map(|&kind| request(kind, &TechParams::default()).with_label(kind.as_str()))
        .collect();
    // `--tech-sweep`: the MOBO-vs-random comparison once per technology
    // profile. Each node's runs are priced by backends built with its
    // own TechParams, so the shared store keeps the nodes apart.
    let profiles = if cfg.tech_sweep {
        cfg.tech_profiles()
    } else {
        Vec::new()
    };
    for (tech_name, tech) in &profiles {
        for kind in [OptimizerKind::Mobo, OptimizerKind::Random] {
            requests.push(request(kind, tech).with_label(format!("{tech_name}/{kind}")));
        }
    }
    let histories: Vec<OptimizerResult> = cfg
        .run_jobs(requests)
        .into_iter()
        .map(|solution| solution.hw_history)
        .collect();
    let (main, sweep) = histories.split_at(METHODS.len());
    let main_reference = reference(main);

    let curves: Vec<Curve> = METHODS
        .iter()
        .zip(main)
        .map(|(kind, h)| Curve {
            name: kind.to_string(),
            hv: h.hypervolume_history(&main_reference),
        })
        .collect();

    let final_of = |n: &str| {
        *curves
            .iter()
            .find(|c| c.name == n)
            .unwrap()
            .hv
            .last()
            .unwrap()
    };
    let nsga_final = final_of("nsga2");
    let mobo = curves.iter().find(|c| c.name == "mobo").unwrap();
    let mobo_crossover_trial = mobo.hv.iter().position(|&v| v >= nsga_final).map(|i| i + 1);

    // Each node gets its own reference point, so only the within-node
    // ratio is comparable.
    let mut tech_sweep = Vec::new();
    for (pair, (tech_name, _)) in sweep.chunks(2).zip(&profiles) {
        let (mobo_h, rand_h) = (&pair[0], &pair[1]);
        let node_reference = reference(pair);
        let final_hv = |h: &OptimizerResult| {
            h.hypervolume_history(&node_reference)
                .last()
                .copied()
                .unwrap_or(0.0)
        };
        let ratio = final_hv(mobo_h) / final_hv(rand_h).max(1e-300);
        tech_sweep.push((tech_name.to_string(), ratio));
    }

    Fig10 {
        hv_ratio_mobo_nsga: final_of("mobo") / nsga_final.max(1e-300),
        mobo_crossover_trial,
        curves,
        tech_sweep,
    }
}

/// Renders the curves as aligned columns.
pub fn render(f: &Fig10) -> String {
    let mut s = String::from(
        "Fig. 10: Hypervolume vs. trial (ResNet layers, GEMM intrinsic)\ntrial  random    nsga2     mobo\n",
    );
    let len = f.curves.iter().map(|c| c.hv.len()).max().unwrap_or(0);
    let max_hv = f
        .curves
        .iter()
        .flat_map(|c| c.hv.iter())
        .cloned()
        .fold(0.0f64, f64::max)
        .max(1e-300);
    for i in 0..len {
        let cell = |name: &str| {
            f.curves
                .iter()
                .find(|c| c.name == name)
                .and_then(|c| c.hv.get(i))
                .map(|v| format!("{:8.4}", v / max_hv))
                .unwrap_or_else(|| "   -   ".into())
        };
        s.push_str(&format!(
            "{:>5}  {}  {}  {}\n",
            i + 1,
            cell("random"),
            cell("nsga2"),
            cell("mobo")
        ));
    }
    s.push_str(&format!(
        "\nMOBO final / NSGA-II final hypervolume: {:.2}X (paper: 1.19X)\n",
        f.hv_ratio_mobo_nsga
    ));
    match f.mobo_crossover_trial {
        Some(t) => s.push_str(&format!(
            "MOBO reaches NSGA-II's final HV at trial {t} (paper: ~16/40, 2.5X fewer)\n"
        )),
        None => s.push_str("MOBO did not reach NSGA-II's final HV within budget\n"),
    }
    if !f.tech_sweep.is_empty() {
        s.push_str("\nTech sweep (staged pipeline per node; MOBO final HV / random final HV):\n");
        for (tech, ratio) in &f.tech_sweep {
            s.push_str(&format!("  {tech:>5}: {ratio:.2}X\n"));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobo_at_least_matches_nsga() {
        let f = run(&Config::at(Scale::Quick));
        assert!(
            f.hv_ratio_mobo_nsga >= 0.95,
            "MOBO/NSGA-II HV ratio = {}",
            f.hv_ratio_mobo_nsga
        );
    }

    #[test]
    fn curves_are_monotone() {
        let f = run(&Config::at(Scale::Quick));
        for c in &f.curves {
            assert!(
                c.hv.windows(2).all(|w| w[1] >= w[0] - 1e-9),
                "{} not monotone",
                c.name
            );
        }
    }
}
