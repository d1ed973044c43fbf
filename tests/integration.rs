//! Cross-crate integration tests: the full pipeline from tensor IR through
//! matching, scheduling, lowering, instruction generation, simulation, and
//! co-design.

use accel_model::arch::AcceleratorConfig;
use accel_model::sim::TraceSimulator;
use hasco::codesign::{CoDesignOptions, CoDesigner};
use hasco::input::{Constraints, GenerationMethod, InputDescription};
use sw_opt::explorer::{ExplorerOptions, SoftwareExplorer};
use sw_opt::interface;
use sw_opt::schedule::ScheduleContext;
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::suites;
use tensor_ir::workload::TensorApp;

fn gemmcore() -> AcceleratorConfig {
    AcceleratorConfig::builder(IntrinsicKind::Gemm)
        .pe_array(16, 16)
        .scratchpad_kb(256)
        .build()
        .unwrap()
}

#[test]
fn schedule_lowers_generates_and_simulates_consistently() {
    // IR -> matcher -> explorer -> lowering -> ISA -> simulator, asserting
    // the analytical and simulated latencies stay within 2.5x.
    let cfg = gemmcore();
    let wl = suites::gemm_workload("g", 256, 256, 256);
    let opts = ExplorerOptions {
        pool: 8,
        rounds: 8,
        top_k: 3,
        ..Default::default()
    };
    let best = SoftwareExplorer::new(3).optimize(&wl, &cfg, &opts).unwrap();
    let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
    let iface = interface::generate_program(&best.schedule, &ctx, &cfg, 50_000).unwrap();
    assert!(!iface.truncated);
    let sim = TraceSimulator::default();
    let traced = sim.run(&cfg, &iface.program, iface.lowered.plan.double_buffered);
    let ratio = traced / best.metrics.latency_cycles;
    assert!((0.4..2.5).contains(&ratio), "sim/model ratio = {ratio}");
    // The instruction stream must carry exactly the plan's work.
    assert_eq!(
        iface.program.total_calls(),
        iface.lowered.plan.intrinsic_calls
    );
    assert_eq!(iface.program.total_macs(), iface.lowered.plan.macs_padded);
}

#[test]
fn codesign_full_flow_on_mixed_app() {
    let app = TensorApp::new(
        "mixed",
        vec![
            suites::gemm_workload("g", 256, 256, 256),
            suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3),
        ],
    );
    let input = InputDescription {
        app,
        method: GenerationMethod::Gemmini,
        constraints: Constraints::default(),
    };
    let solution = CoDesigner::new(CoDesignOptions::quick(5))
        .run(&input)
        .unwrap();
    assert_eq!(solution.per_workload.len(), 2);
    assert!(solution.total.latency_cycles > 0.0);
    // Per-workload latencies must sum to the app latency.
    let sum: f64 = solution
        .per_workload
        .iter()
        .map(|w| w.metrics.latency_cycles)
        .sum();
    assert!((sum - solution.total.latency_cycles).abs() / sum < 1e-9);
    // Both generated programs reference the GEMM interface.
    for w in &solution.per_workload {
        assert!(w.program.contains("gemm_intrin"), "{}", w.program);
    }
}

#[test]
fn hasco_software_beats_naive_schedule_on_gemmcore() {
    // The explorer must beat the worst random valid schedule by a clear
    // margin (software optimization matters, §II-C).
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let cfg = gemmcore();
    let wl = suites::conv2d_workload("c", 128, 128, 28, 28, 3, 3);
    let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
    let model = accel_model::AnalyticBackend::default();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut worst: f64 = 0.0;
    for _ in 0..60 {
        let s = ctx.random_schedule(&mut rng);
        if let Ok(m) = sw_opt::lowering::evaluate(&s, &ctx, &cfg, &model) {
            worst = worst.max(m.latency_cycles);
        }
    }
    let opts = ExplorerOptions {
        pool: 10,
        rounds: 12,
        top_k: 3,
        ..Default::default()
    };
    let best = SoftwareExplorer::new(2).optimize(&wl, &cfg, &opts).unwrap();
    assert!(
        best.metrics.latency_cycles * 2.0 < worst,
        "best {} vs worst {}",
        best.metrics.latency_cycles,
        worst
    );
}

#[test]
fn library_autotvm_hasco_ordering_on_conv() {
    // §VII-D ordering for a conv layer on GEMMCore:
    // library (im2col) >= autotvm >= hasco in latency (within tolerance).
    let cfg = gemmcore();
    let wl = suites::conv2d_workload("c", 128, 128, 28, 28, 3, 3);
    let lib = baselines::GemmLibrary::new().run(&wl, &cfg).unwrap();
    let tvm = baselines::AutoTvm::new(9).best_metrics(&wl, &cfg).unwrap();
    let opts = ExplorerOptions {
        pool: 12,
        rounds: 14,
        top_k: 3,
        ..Default::default()
    };
    let hasco = SoftwareExplorer::new(9)
        .optimize(&wl, &cfg, &opts)
        .unwrap()
        .metrics;
    // Per-layer lib-vs-AutoTVM ordering varies (the aggregate 3.17X/1.21X
    // shape is asserted in the fig11 harness); HASCO must top both here.
    assert!(
        hasco.latency_cycles <= tvm.latency_cycles * 1.05,
        "hasco {} should match/beat autotvm {}",
        hasco.latency_cycles,
        tvm.latency_cycles
    );
    assert!(
        hasco.latency_cycles * 1.5 < lib.total.latency_cycles,
        "hasco {} should clearly beat the im2col library {}",
        hasco.latency_cycles,
        lib.total.latency_cycles
    );
    assert!(lib.conversion.is_some());
}

#[test]
fn partition_space_matches_paper_counts() {
    // End-to-end §IV-B check through the public API.
    let app = TensorApp::new(
        "t",
        vec![suites::conv2d_workload("c", 64, 64, 56, 56, 3, 3)],
    );
    let parts = hasco::partition::partition_app(&app, &IntrinsicKind::ALL, 256);
    let gemm_choices = parts[0]
        .per_intrinsic
        .iter()
        .find(|(k, _)| *k == IntrinsicKind::Gemm)
        .map(|(_, v)| v.len())
        .unwrap();
    assert_eq!(gemm_choices, 6);
}

#[test]
fn chisel_and_gemmini_generators_drive_same_cost_model() {
    use hw_gen::space::Generator;
    let gem = hw_gen::GemminiGenerator::new();
    let chi = hw_gen::ChiselGenerator::new(IntrinsicKind::Gemm);
    let wl = suites::gemm_workload("g", 128, 128, 128);
    let opts = ExplorerOptions {
        pool: 5,
        rounds: 4,
        top_k: 2,
        ..Default::default()
    };
    let explorer = SoftwareExplorer::new(4);
    for generator in [&gem as &dyn Generator, &chi as &dyn Generator] {
        let point = vec![0; generator.space().len()];
        let cfg = generator.generate(&point).unwrap();
        let m = explorer.best_metrics(&wl, &cfg, &opts).unwrap();
        assert!(m.latency_cycles > 0.0, "{}", generator.name());
    }
}
