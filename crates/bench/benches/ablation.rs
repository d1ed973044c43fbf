//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **MOBO acquisition** — GP + hypervolume-PoI vs. pure random sampling
//!    at equal trial budgets (is the surrogate earning its keep?);
//! 2. **Q-learning revisions** — heuristic + DQN vs. heuristic + random
//!    revision in the software DSE;
//! 3. **Dataflow choice** — the latency sensitivity the cost model assigns
//!    to the dataflow knob.

use accel_model::arch::{AcceleratorConfig, Dataflow};
use dse::mobo::Mobo;
use dse::random::RandomSearch;
use dse::Optimizer;
use hasco::codesign::HwProblem;
use hw_gen::GemminiGenerator;
use sw_opt::explorer::{ExplorerOptions, SoftwareExplorer};
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::suites;

fn ablate_mobo_acquisition() {
    println!("--- ablation 1: MOBO surrogate vs. random acquisition (ResNet layers) ---");
    let workloads: Vec<_> = suites::resnet50_convs().into_iter().take(4).collect();
    let generator = GemminiGenerator::new();
    let sw = ExplorerOptions {
        pool: 4,
        rounds: 3,
        top_k: 2,
        ..Default::default()
    };
    let mut ratios = Vec::new();
    for seed in 0..3u64 {
        let mut p1 = HwProblem::new(&generator, &workloads, sw.clone(), seed);
        let mobo = Mobo::new(seed).with_prior_samples(5).run(&mut p1, 14);
        let mut p2 = HwProblem::new(&generator, &workloads, sw.clone(), seed);
        let rand = RandomSearch::new(seed).run(&mut p2, 14);
        let best = |h: &dse::problem::OptimizerResult| {
            h.evaluations
                .iter()
                .map(|e| e.objectives[0])
                .fold(f64::NAN, f64::min)
        };
        ratios.push(best(&rand) / best(&mobo));
        println!(
            "  seed {seed}: best latency mobo {:.3e}, random {:.3e} (random/mobo = {:.2}X)",
            best(&mobo),
            best(&rand),
            best(&rand) / best(&mobo)
        );
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("  mean random/mobo best-latency ratio: {mean:.2}X (>1 means the surrogate helps)\n");
}

fn ablate_qlearning() {
    println!("--- ablation 2: Q-learning vs. random revisions (software DSE) ---");
    let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
        .build()
        .unwrap();
    let workloads = [
        suites::gemm_workload("g", 512, 512, 512),
        suites::conv2d_workload("c", 128, 128, 28, 28, 3, 3),
    ];
    for wl in &workloads {
        let mut q_sum = 0.0;
        let mut r_sum = 0.0;
        for seed in 0..3u64 {
            let mut opts = ExplorerOptions {
                pool: 8,
                rounds: 12,
                top_k: 3,
                ..Default::default()
            };
            let q = SoftwareExplorer::new(seed)
                .optimize(wl, &cfg, &opts)
                .unwrap();
            opts.use_qlearning = false;
            let r = SoftwareExplorer::new(seed)
                .optimize(wl, &cfg, &opts)
                .unwrap();
            q_sum += q.metrics.latency_cycles;
            r_sum += r.metrics.latency_cycles;
        }
        println!(
            "  {}: mean latency qlearn {:.3e}, random-revision {:.3e} (random/qlearn = {:.2}X)",
            wl.name,
            q_sum / 3.0,
            r_sum / 3.0,
            r_sum / q_sum
        );
    }
    println!();
}

fn ablate_dataflow() {
    println!("--- ablation 3: dataflow sensitivity of the cost model ---");
    let wl = suites::conv2d_workload("c", 128, 128, 28, 28, 3, 3);
    for df in Dataflow::ALL {
        let mut b = AcceleratorConfig::builder(IntrinsicKind::Conv2d);
        b.pe_array(12, 12).scratchpad_kb(512).banks(8).dataflow(df);
        let cfg = b.build().unwrap();
        let opts = ExplorerOptions {
            pool: 8,
            rounds: 8,
            top_k: 3,
            ..Default::default()
        };
        let m = SoftwareExplorer::new(5)
            .optimize(&wl, &cfg, &opts)
            .unwrap()
            .metrics;
        println!("  {df}: latency {:.3e} cycles", m.latency_cycles);
    }
    println!();
}

fn main() {
    let t0 = std::time::Instant::now();
    ablate_mobo_acquisition();
    ablate_qlearning();
    ablate_dataflow();
    println!("[ablations done in {:.1}s]", t0.elapsed().as_secs_f64());
}
