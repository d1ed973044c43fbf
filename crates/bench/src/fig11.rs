//! Fig. 11 — ResNet software comparison on a fixed GEMMCore (§VII-D):
//! the hand-tuned library (compute + im2col/col2im split), AutoTVM, and
//! HASCO, per convolution workload.
//!
//! Headline shapes: HASCO ≥ 2X faster than the library on a large share of
//! the 53 workloads (paper: 18/53, 3.17X mean), and ~1.21X over AutoTVM.

use baselines::{AutoTvm, GemmLibrary};
use hasco::report::{speedup, Table};

use tensor_ir::suites;

use crate::common::{gemmcore, sw_opts, Config};
use crate::Scale;

/// Latency of one workload under each system (ms).
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Library GEMM compute time.
    pub lib_compute: f64,
    /// Library im2col + col2im time.
    pub lib_conversion: f64,
    /// AutoTVM-tuned latency.
    pub autotvm: f64,
    /// HASCO-optimized latency.
    pub hasco: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Per-workload rows.
    pub rows: Vec<Row>,
    /// Geometric-mean speedup of HASCO over the library total.
    pub mean_speedup_vs_lib: f64,
    /// Geometric-mean speedup of HASCO over AutoTVM.
    pub mean_speedup_vs_autotvm: f64,
    /// Workloads where HASCO is at least 2X faster than the library.
    pub ge2x_vs_lib: usize,
}

/// Runs the comparison.
pub fn run(cfg: &Config) -> Fig11 {
    let convs = suites::resnet50_convs();
    let convs = match cfg.scale {
        Scale::Quick => convs[..6].to_vec(),
        Scale::Paper => convs,
    };
    let explorer = cfg.explorer(11);
    let opts = sw_opts(cfg.scale);
    let cfg = gemmcore();
    let lib = GemmLibrary::new();
    let tvm = AutoTvm::new(11);

    let mut rows = Vec::new();
    for w in &convs {
        let lib_run = lib.run(w, &cfg).expect("library handles ResNet convs");
        let tvm_m = tvm
            .best_metrics(w, &cfg)
            .expect("autotvm handles ResNet convs");
        let hasco_m = explorer
            .optimize(w, &cfg, &opts)
            .expect("hasco handles ResNet convs")
            .metrics;
        rows.push(Row {
            workload: w.name.clone(),
            lib_compute: lib_run.compute.latency_ms,
            lib_conversion: lib_run.conversion.map(|c| c.latency_ms).unwrap_or(0.0),
            autotvm: tvm_m.latency_ms,
            hasco: hasco_m.latency_ms,
        });
    }
    let geo = |f: &dyn Fn(&Row) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let mean_speedup_vs_lib = geo(&|r: &Row| (r.lib_compute + r.lib_conversion) / r.hasco);
    let mean_speedup_vs_autotvm = geo(&|r: &Row| r.autotvm / r.hasco);
    let ge2x_vs_lib = rows
        .iter()
        .filter(|r| (r.lib_compute + r.lib_conversion) / r.hasco >= 2.0)
        .count();
    Fig11 {
        rows,
        mean_speedup_vs_lib,
        mean_speedup_vs_autotvm,
        ge2x_vs_lib,
    }
}

/// Renders the first 20 workloads plus the summary (like the paper's plot).
pub fn render(f: &Fig11) -> String {
    let mut t = Table::new(&[
        "Workload",
        "lib compute (ms)",
        "lib im2col+col2im (ms)",
        "AutoTVM (ms)",
        "HASCO (ms)",
        "HASCO vs lib",
    ]);
    for r in f.rows.iter().take(20) {
        t.row(vec![
            r.workload.clone(),
            format!("{:.3}", r.lib_compute),
            format!("{:.3}", r.lib_conversion),
            format!("{:.3}", r.autotvm),
            format!("{:.3}", r.hasco),
            speedup(r.lib_compute + r.lib_conversion, r.hasco),
        ]);
    }
    format!(
        "Fig. 11: ResNet convolution software on GEMMCore (16x16, 256 KB)\n{}\n\
         HASCO vs library (geomean): {:.2}X (paper: 3.17X)\n\
         HASCO vs AutoTVM (geomean): {:.2}X (paper: 1.21X)\n\
         workloads with >=2X over library: {}/{} (paper: 18/53)\n",
        t.render(),
        f.mean_speedup_vs_lib,
        f.mean_speedup_vs_autotvm,
        f.ge2x_vs_lib,
        f.rows.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasco_beats_library_clearly() {
        let f = run(&Config::at(Scale::Quick));
        assert!(
            f.mean_speedup_vs_lib > 1.5,
            "mean speedup vs lib = {}",
            f.mean_speedup_vs_lib
        );
        assert!(f.ge2x_vs_lib >= 1);
    }

    #[test]
    fn hasco_at_least_matches_autotvm() {
        let f = run(&Config::at(Scale::Quick));
        assert!(
            f.mean_speedup_vs_autotvm >= 1.0,
            "mean speedup vs autotvm = {}",
            f.mean_speedup_vs_autotvm
        );
    }

    #[test]
    fn conversion_overhead_dominates_somewhere() {
        let f = run(&Config::at(Scale::Quick));
        assert!(
            f.rows.iter().any(|r| r.lib_conversion > r.lib_compute),
            "im2col/col2im never dominated"
        );
    }
}
