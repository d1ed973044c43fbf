//! Fig. 2 — the motivational case study (§II-C): two GEMM accelerators
//! (GA_L: 16×16 PEs / 256 KB, GA_S: 8×8 / 128 KB) running three optimized
//! programs.
//!
//! We construct the programs the way the study motivates them: `p1` is the
//! program tuned for GA_L, `p2` is the program tuned for GA_S, and `p3` is
//! `p1` with more on-chip computation (grown tiles). The paper's findings
//! to reproduce: software optimizations have a large impact; more on-chip
//! computation does not necessarily help (p3 vs. p1); and different
//! accelerators prefer different programs.

use hasco::report::Table;

use sw_opt::lowering;
use sw_opt::schedule::{Schedule, ScheduleContext};
use tensor_ir::suites;

use crate::common::{ga_l, ga_s, sw_opts, throughput_mops, Config};

/// Result: normalized throughput of p1–p3 on both accelerators.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Throughput (MOPS) of [p1, p2, p3] on GA_L.
    pub ga_l_mops: [f64; 3],
    /// Throughput (MOPS) of [p1, p2, p3] on GA_S.
    pub ga_s_mops: [f64; 3],
    /// GA_L peak (max across programs) used for normalization.
    pub ga_l_peak: f64,
}

impl Fig2 {
    /// Normalized throughput matrix (by GA_L's peak, as in the paper).
    pub fn normalized(&self) -> ([f64; 3], [f64; 3]) {
        let n = |v: f64| v / self.ga_l_peak;
        (
            [
                n(self.ga_l_mops[0]),
                n(self.ga_l_mops[1]),
                n(self.ga_l_mops[2]),
            ],
            [
                n(self.ga_s_mops[0]),
                n(self.ga_s_mops[1]),
                n(self.ga_s_mops[2]),
            ],
        )
    }

    /// The index of the best program per accelerator.
    pub fn best_programs(&self) -> (usize, usize) {
        let argmax = |v: &[f64; 3]| {
            v.iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty")
        };
        (argmax(&self.ga_l_mops), argmax(&self.ga_s_mops))
    }
}

fn grow_tiles(sched: &Schedule, ctx: &ScheduleContext) -> Schedule {
    let mut grown = sched.clone();
    for (&idx, t) in sched.tiles.iter() {
        let ext = ctx.workload.comp.index(idx).extent;
        grown.tiles.insert(idx, (t * 2).min(ext));
    }
    grown
}

/// Runs the case study.
pub fn run(cfg: &Config) -> Fig2 {
    let workload = suites::gemm_workload("fig2_gemm", 512, 512, 512);
    let (big, small) = (ga_l(), ga_s());
    let opts = sw_opts(cfg.scale);
    let explorer = cfg.explorer(2024);

    let p1 = explorer
        .optimize(&workload, &big, &opts)
        .expect("GA_L is schedulable")
        .schedule;
    let p2 = explorer
        .optimize(&workload, &small, &opts)
        .expect("GA_S is schedulable")
        .schedule;

    let eval = |sched: &Schedule, cfg: &accel_model::AcceleratorConfig| -> f64 {
        let ctx = ScheduleContext::new(&workload, &cfg.intrinsic_comp())
            .expect("gemm matches gemm intrinsic");
        // Rebind the schedule's choice to this accelerator's context (the
        // choice structure is identical; tiles/order carry over).
        let mut s = sched.clone();
        if let Some(c) = ctx.choices.iter().find(|c| c.var_map == s.choice.var_map) {
            s.choice = c.clone();
        }
        match lowering::evaluate(&s, &ctx, cfg, &accel_model::AnalyticBackend::default()) {
            Ok(m) => throughput_mops(&workload, m.latency_ms),
            Err(_) => 0.0, // does not fit this accelerator
        }
    };

    let ctx_big = ScheduleContext::new(&workload, &big.intrinsic_comp()).expect("valid");
    let p3 = grow_tiles(&p1, &ctx_big);

    let ga_l_mops = [eval(&p1, &big), eval(&p2, &big), eval(&p3, &big)];
    let ga_s_mops = [eval(&p1, &small), eval(&p2, &small), eval(&p3, &small)];
    let ga_l_peak = ga_l_mops.iter().cloned().fold(0.0, f64::max);
    Fig2 {
        ga_l_mops,
        ga_s_mops,
        ga_l_peak,
    }
}

/// Renders the figure as a table of normalized throughput.
pub fn render(f: &Fig2) -> String {
    let (l, s) = f.normalized();
    let mut t = Table::new(&["Program", "GA_L", "GA_S"]);
    for (i, name) in ["p1", "p2", "p3"].iter().enumerate() {
        t.row(vec![
            name.to_string(),
            format!("{:.3}", l[i]),
            format!("{:.3}", s[i]),
        ]);
    }
    let (bl, bs) = f.best_programs();
    format!(
        "Fig. 2: Normalized throughput on two GEMM accelerators (GA_L peak = {:.1} MOPS)\n{}\
         best on GA_L: p{}, best on GA_S: p{}\n",
        f.ga_l_peak,
        t.render(),
        bl + 1,
        bs + 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn software_choice_matters_and_p3_not_better() {
        let f = run(&Config::at(Scale::Quick));
        // p1 is tuned for GA_L: it must be at least as good as p3 (more
        // on-chip compute) there.
        assert!(
            f.ga_l_mops[0] >= f.ga_l_mops[2] * 0.999,
            "{:?}",
            f.ga_l_mops
        );
        // Programs differ in throughput (software has a huge impact).
        let spread = f.ga_l_mops.iter().cloned().fold(0.0, f64::max)
            / f.ga_l_mops
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
                .max(1e-9);
        assert!(spread > 1.01, "no spread: {:?}", f.ga_l_mops);
    }

    #[test]
    fn ga_l_peak_exceeds_ga_s_peak() {
        // §II-C: GA_L achieves higher peak throughput than GA_S.
        let f = run(&Config::at(Scale::Quick));
        let s_peak = f.ga_s_mops.iter().cloned().fold(0.0, f64::max);
        assert!(
            f.ga_l_peak > s_peak,
            "GA_L {} vs GA_S {}",
            f.ga_l_peak,
            s_peak
        );
    }

    #[test]
    fn render_has_three_rows() {
        let s = render(&run(&Config::at(Scale::Quick)));
        assert!(s.contains("p1") && s.contains("p2") && s.contains("p3"));
    }
}
