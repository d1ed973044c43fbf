//! The `hasco::Engine` service API: option validation at submit, queued
//! and mid-run cancellation, campaign fan-out with cross-scenario dedup
//! and per-scenario attribution, the surrogate registry and its
//! warm-restart store, and persisted-store lifecycle (including age-based
//! GC).

use std::time::Duration;

use accel_model::BackendKind;
use hasco::codesign::{CoDesignOptions, CoDesigner, HwProblem, OptimizerKind};
use hasco::engine::{CoDesignRequest, Engine, EngineConfig};
use hasco::event::RunEvent;
use hasco::input::{Constraints, GenerationMethod, InputDescription};
use hasco::HascoError;
use runtime::{resolve_threads, CacheStats, Telemetry, WorkerPool};
use tensor_ir::suites;
use tensor_ir::workload::TensorApp;

fn toy_input() -> InputDescription {
    InputDescription {
        app: TensorApp::new(
            "toy",
            vec![
                suites::gemm_workload("g1", 128, 128, 128),
                suites::gemm_workload("g2", 256, 128, 64),
            ],
        ),
        method: GenerationMethod::Gemmini,
        constraints: Constraints::default(),
    }
}

/// The engine's lookups so far in its `scope` cache scope.
fn traffic(engine: &Engine, scope: &str) -> CacheStats {
    let snapshot = engine.metrics().expect("metrics are on");
    let caches = snapshot.caches.iter().find(|c| c.scope == scope);
    caches
        .unwrap_or_else(|| panic!("no {scope} cache scope"))
        .total()
}

/// The engine's memo-store lookups so far (its `store` cache scope): a
/// miss is a software exploration run, a hit one answered from the store.
fn store_traffic(engine: &Engine) -> CacheStats {
    traffic(engine, "store")
}

/// A one-slot engine that records telemetry.
fn metered_engine() -> Engine {
    Engine::new(
        EngineConfig::default()
            .with_job_slots(1)
            .with_metrics(Telemetry::enabled()),
    )
}

fn temp_cache(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hasco-engine-{name}-{}.bin", std::process::id()));
    p
}

#[test]
fn invalid_option_combinations_are_rejected_at_submit() {
    let engine = Engine::new(EngineConfig::default());
    let invalid = |opts: CoDesignOptions| {
        let err = match engine.submit(CoDesignRequest::new(toy_input(), opts)) {
            Err(err) => err,
            Ok(_) => panic!("submit accepted degenerate options"),
        };
        assert!(
            matches!(err, HascoError::InvalidOptions(_)),
            "expected InvalidOptions, got {err:?}"
        );
        err.to_string()
    };

    // Refine tier equal to the screen tier: staging would re-price with
    // the backend that already screened.
    let msg = invalid(CoDesignOptions::quick(0).with_refinement(BackendKind::Analytic, 2));
    assert!(msg.contains("refine tier equals the screen tier"), "{msg}");

    // The surrogate as the refine tier wraps itself.
    let msg = invalid(CoDesignOptions::quick(0).with_refinement(BackendKind::Surrogate, 2));
    assert!(msg.contains("self-referential"), "{msg}");

    // Adaptive staging with a zero budget can never grow.
    let mut opts = CoDesignOptions::quick(0);
    opts.adaptive_refinement = true;
    opts.refine_top_k = 0;
    let msg = invalid(opts);
    assert!(msg.contains("adaptive staging"), "{msg}");

    // Zero trial budget.
    let mut opts = CoDesignOptions::quick(0);
    opts.hw_trials = 0;
    invalid(opts);

    // The one-shot wrapper rejects the same combinations.
    assert!(matches!(
        CoDesigner::new(CoDesignOptions::quick(0).with_refinement(BackendKind::Analytic, 2))
            .run(&toy_input()),
        Err(HascoError::InvalidOptions(_))
    ));

    // The canonical configurations stay valid.
    CoDesignOptions::quick(0).validate().unwrap();
    CoDesignOptions::paper(0).validate().unwrap();
    CoDesignOptions::quick(0)
        .with_backend(BackendKind::Surrogate)
        .with_adaptive_refinement(BackendKind::TraceSim, 2)
        .validate()
        .unwrap();
}

#[test]
fn queued_jobs_cancel_before_they_start() {
    // One slot: while the first job occupies it, the second is still
    // queued — cancelling it there is deterministic.
    let engine = Engine::new(EngineConfig::default().with_job_slots(1));
    let first = engine
        .submit(CoDesignRequest::new(toy_input(), CoDesignOptions::quick(1)))
        .unwrap();
    let second = engine
        .submit(CoDesignRequest::new(toy_input(), CoDesignOptions::quick(2)))
        .unwrap();
    second.cancel();

    assert!(matches!(second.wait(), Err(HascoError::Cancelled)));
    let events: Vec<RunEvent> = second.events().collect();
    assert_eq!(events, vec![RunEvent::Cancelled]);
    // The running job is unaffected.
    assert!(first.wait().is_ok());
}

#[test]
fn midrun_cancellation_stops_a_job_early() {
    let engine = Engine::new(EngineConfig::default().with_job_slots(1));
    // A deliberately long job (big trial budget).
    let mut opts = CoDesignOptions::quick(3);
    opts.hw_trials = 200;
    let handle = engine
        .submit(CoDesignRequest::new(toy_input(), opts))
        .unwrap();
    // Wait for proof the job is running, then cancel.
    let mut events = handle.events();
    let started = events.next().expect("job emits Started");
    assert!(matches!(started, RunEvent::Started { .. }));
    handle.cancel();

    assert!(matches!(handle.wait(), Err(HascoError::Cancelled)));
    let tail: Vec<RunEvent> = events.collect();
    assert_eq!(tail.last(), Some(&RunEvent::Cancelled));
    // Whatever the cancelled job left in the store is pure: a follow-up
    // job solves exactly as it would on a fresh engine.
    let follow_up = || CoDesignRequest::new(toy_input(), CoDesignOptions::quick(3));
    let after_cancel = engine.submit(follow_up()).unwrap().wait().unwrap();
    let fresh = Engine::new(EngineConfig::default().with_job_slots(1))
        .submit(follow_up())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(after_cancel, fresh);
}

#[test]
fn campaign_dedups_identical_scenarios_and_warms_across_waves() {
    // Single slot — every scenario is its own wave, so later scenarios
    // deterministically start warm from earlier ones.
    let engine = metered_engine();
    let opts = CoDesignOptions::quick(11);
    // edge and cloud differ only in constraints: their evaluations are
    // identical, so the cloud run should be answered mostly from the
    // store. The third scenario repeats the first exactly (dedup).
    let edge = Constraints {
        max_power_mw: Some(2_000.0),
        ..Constraints::default()
    };
    let cloud = Constraints {
        max_power_mw: Some(20_000.0),
        ..Constraints::default()
    };
    let request = |constraints: Constraints, label: &str| {
        let mut input = toy_input();
        input.constraints = constraints;
        CoDesignRequest::new(input, opts.clone()).with_label(label)
    };
    let outcomes = engine
        .campaign(vec![
            request(edge, "edge"),
            request(cloud, "cloud"),
            request(edge, "edge-again"),
        ])
        .unwrap();

    // Attribution, in matrix order: each scenario keeps its own label,
    // and only the exact duplicate names the representative that ran.
    let attribution: Vec<(&str, Option<&str>)> = outcomes
        .iter()
        .map(|o| (o.label.as_str(), o.shared_with.as_deref()))
        .collect();
    assert_eq!(
        attribution,
        [
            ("edge", None),
            ("cloud", None),
            ("edge-again", Some("edge"))
        ]
    );
    // Cross-scenario dedup through the shared store: the cloud run found
    // every (config, workload) evaluation already priced, so the campaign
    // explored exactly what the edge scenario alone explores.
    let campaign = store_traffic(&engine);
    let edge_alone = metered_engine();
    edge_alone
        .submit(request(edge, "edge"))
        .unwrap()
        .wait()
        .unwrap();
    let edge_alone = store_traffic(&edge_alone);
    assert_eq!(
        campaign.misses, edge_alone.misses,
        "cloud scenario saw no warmth from the edge scenario"
    );
    assert!(campaign.hits > edge_alone.hits);
    // Exact-duplicate dedup: the repeat never executed.
    assert_eq!(engine.jobs_executed(), 2);
    assert_eq!(
        outcomes[0].solution.accelerator,
        outcomes[2].solution.accelerator
    );
    assert_eq!(
        outcomes[0].solution.total.latency_cycles,
        outcomes[2].solution.total.latency_cycles
    );
    // Same evaluations, different constraint checks — the accelerators
    // still agree here because the toy app meets both constraint sets.
    assert_eq!(
        outcomes[0].solution.accelerator,
        outcomes[1].solution.accelerator
    );
}

#[test]
fn campaign_dedups_requests_differing_only_in_threads_stealing_capacity() {
    // Thread count, work-stealing and the cache capacity never change a
    // solution, so the request fingerprint leaves them out: a scenario
    // that differs only there is a duplicate, and its cloned solution
    // equals an independent run of its own options.
    let engine = Engine::new(EngineConfig::default().with_job_slots(1));
    let serial = CoDesignOptions::quick(13);
    let mut parallel = serial.clone().with_threads(2).with_work_stealing(false);
    parallel.cache_capacity = 64;
    let outcomes = engine
        .campaign(vec![
            CoDesignRequest::new(toy_input(), serial).with_label("serial"),
            CoDesignRequest::new(toy_input(), parallel.clone()).with_label("parallel"),
        ])
        .unwrap();
    assert_eq!(engine.jobs_executed(), 1);
    assert_eq!(outcomes[1].shared_with.as_deref(), Some("serial"));
    let independent = CoDesigner::new(parallel).run(&toy_input()).unwrap();
    assert_eq!(outcomes[1].solution, independent);
}

#[test]
fn campaign_results_do_not_depend_on_slot_count() {
    let matrix = || {
        (0..4)
            .map(|i| {
                CoDesignRequest::new(toy_input(), CoDesignOptions::quick(20 + i))
                    .with_label(format!("s{i}"))
            })
            .collect::<Vec<_>>()
    };
    let serial = Engine::new(EngineConfig::default().with_job_slots(1))
        .campaign(matrix())
        .unwrap();
    let wide = Engine::new(EngineConfig::default().with_job_slots(4))
        .campaign(matrix())
        .unwrap();
    for (a, b) in serial.iter().zip(&wide) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.solution.accelerator, b.solution.accelerator);
        assert_eq!(a.solution.hw_history, b.solution.hw_history);
        assert_eq!(
            a.solution.total.latency_cycles,
            b.solution.total.latency_cycles
        );
    }
}

#[test]
fn store_persists_across_engine_lifetimes_and_gc_expires_it() {
    let path = temp_cache("persist-gc");
    std::fs::remove_file(&path).ok();
    let config = || {
        EngineConfig::default()
            .with_job_slots(1)
            .with_cache_path(&path)
            .with_metrics(Telemetry::enabled())
    };

    // First engine: run one job, persist.
    let (cold, cold_traffic) = {
        let engine = Engine::new(config());
        let solution = engine
            .submit(CoDesignRequest::new(toy_input(), CoDesignOptions::quick(9)))
            .unwrap()
            .wait()
            .unwrap();
        assert!(engine.persist().unwrap() > 0);
        (solution, store_traffic(&engine))
    };
    assert!(path.exists());

    // Second engine: loads the image, so the identical job starts warm.
    {
        let engine = Engine::new(config());
        assert!(engine.warm_entries() > 0);
        let warm = engine
            .submit(CoDesignRequest::new(toy_input(), CoDesignOptions::quick(9)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(cold, warm);
        assert!(store_traffic(&engine).misses < cold_traffic.misses);
    }

    // Third engine: a zero max-age persists an empty (fully GC'd) image
    // once the entries are at least a second old.
    std::thread::sleep(Duration::from_millis(1200));
    {
        let engine = Engine::new(config().with_cache_max_age(Duration::ZERO));
        assert!(engine.warm_entries() > 0);
        assert!(engine.final_entries() > 0);
        assert!(engine.acquisition_entries() > 0);
        // The max-age persist GCs every store's aged entries from the
        // file image.
        assert_eq!(engine.persist().unwrap(), 0, "aged entries must be GC'd");
    }
    let engine = Engine::new(config());
    assert_eq!(
        (
            engine.warm_entries(),
            engine.final_entries(),
            engine.acquisition_entries()
        ),
        (0, 0, 0),
        "GC'd image must load empty"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn acquisitions_alone_make_the_image_stale() {
    // An image with every pair and final of a request but none of its
    // acquisitions (one written before the acquisition store existed):
    // rerunning the request stores acquisitions only, and that alone must
    // make the engine save on drop.
    let path = temp_cache("acquisitions-stale");
    std::fs::remove_file(&path).ok();
    let config = || {
        EngineConfig::default()
            .with_job_slots(1)
            .with_cache_path(&path)
            .with_metrics(Telemetry::enabled())
    };
    let request = || CoDesignRequest::new(toy_input(), CoDesignOptions::quick(21));
    let cold = {
        let engine = Engine::new(config());
        let solution = engine.submit(request()).unwrap().wait().unwrap();
        assert!(engine.acquisition_entries() > 0);
        engine.persist().unwrap();
        solution
    };
    let image = runtime::Image::read(&path).unwrap().expect("a valid image");
    let (pairs, finals) = (image.section(0).unwrap(), image.section(1).unwrap());
    runtime::Image::write(&path, &[pairs, finals]).unwrap();

    {
        let engine = Engine::new(config());
        assert_eq!(engine.acquisition_entries(), 0);
        assert_eq!(engine.submit(request()).unwrap().wait().unwrap(), cold);
        assert_eq!(traffic(&engine, "store").inserts, 0);
        assert_eq!(traffic(&engine, "finals").inserts, 0);
        assert!(traffic(&engine, "acquisitions").inserts > 0);
    }
    let engine = Engine::new(config());
    assert!(engine.acquisition_entries() > 0, "drop did not save");
    assert_eq!(engine.submit(request()).unwrap().wait().unwrap(), cold);
    let warm = traffic(&engine, "acquisitions");
    assert!(warm.hits > 0);
    assert_eq!(warm.misses, 0);
    drop(engine);
    std::fs::remove_file(&path).ok();
}

#[test]
fn surrogate_registry_carries_training_across_jobs() {
    let engine = metered_engine();
    let opts = || {
        let mut o = CoDesignOptions::quick(13)
            .with_backend(BackendKind::Surrogate)
            .with_adaptive_refinement(BackendKind::TraceSim, 2);
        o.hw_trials = 6;
        o
    };
    let first = engine
        .submit(CoDesignRequest::new(toy_input(), opts()))
        .unwrap()
        .wait()
        .unwrap();
    assert!(first.stats.surrogate_samples > 0);

    // The second job forks the registered surrogate: it starts with the
    // first job's training set (plus whatever it adds itself) and re-uses
    // the first job's memo entries for the shared training generation.
    assert!(engine.warm_entries() > 0, "surrogate jobs share no warmth");
    let before = store_traffic(&engine);
    let second = engine
        .submit(CoDesignRequest::new(toy_input(), opts()))
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        second.stats.surrogate_samples >= first.stats.surrogate_samples,
        "fork lost training: {} vs {}",
        second.stats.surrogate_samples,
        first.stats.surrogate_samples
    );
    assert!(store_traffic(&engine).hits > before.hits);
}

#[test]
fn cancel_after_completion_returns_the_solution() {
    // A cancel racing a just-completed job must not convert an
    // already-computed solution into `Cancelled`.
    let engine = Engine::new(EngineConfig::default().with_metrics(Telemetry::enabled()));
    let handle = engine
        .submit(CoDesignRequest::new(toy_input(), CoDesignOptions::quick(7)))
        .unwrap();
    while !handle.is_finished() {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.cancel();
    let result = handle.wait();
    assert!(
        result.is_ok(),
        "completed-then-cancelled job lost its solution: {result:?}"
    );
    // The late cancel also does not retract the job's store entries: a
    // repeat job explores nothing and solves identically.
    let before = store_traffic(&engine);
    let repeat = engine
        .submit(CoDesignRequest::new(toy_input(), CoDesignOptions::quick(7)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(store_traffic(&engine).misses, before.misses);
    assert_eq!(Ok(repeat), result);
}

#[test]
fn events_after_wait_replay_the_full_history() {
    // Subscribing after the job finished must replay the identical
    // stream a subscribe-before-run consumer saw.
    let opts = || CoDesignOptions::quick(37).with_refinement(BackendKind::TraceSim, 2);
    let live = {
        let engine = Engine::new(EngineConfig::default().with_job_slots(1));
        let handle = engine
            .submit(CoDesignRequest::new(toy_input(), opts()).with_label("probe"))
            .unwrap();
        let events: Vec<RunEvent> = handle.events().collect();
        handle.wait().unwrap();
        events
    };
    let replayed = {
        let engine = Engine::new(EngineConfig::default().with_job_slots(1));
        let handle = engine
            .submit(CoDesignRequest::new(toy_input(), opts()).with_label("probe"))
            .unwrap();
        handle.wait().unwrap();
        let events: Vec<RunEvent> = handle.events().collect();
        events
    };
    assert!(!live.is_empty());
    assert_eq!(live, replayed, "post-wait replay diverged from live stream");
}

#[test]
fn a_finished_job_warms_the_next_before_anyone_waits() {
    // Jobs price through the engine's store live: once a job has
    // finished, an identical job prices from its entries even though
    // nobody has waited on the first. Every pair hits, none is explored
    // or stored again, and the solution is the same.
    let engine = metered_engine();
    let request = || CoDesignRequest::new(toy_input(), CoDesignOptions::quick(17));
    let first = engine.submit(request()).unwrap();
    while !first.is_finished() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let cold = store_traffic(&engine);
    assert!(cold.inserts > 0);
    let second = engine.submit(request()).unwrap().wait().unwrap();
    let warm = store_traffic(&engine);
    assert!(warm.hits > cold.hits, "{cold:?} {warm:?}");
    assert_eq!(warm.misses, cold.misses, "the second job explored again");
    assert_eq!(warm.inserts, cold.inserts);
    assert_eq!(warm.evictions, 0);
    assert_eq!(first.wait().unwrap(), second);
}

#[test]
fn surrogate_store_persists_training_across_engine_lifetimes() {
    let cache = temp_cache("ss-cache");
    let store = temp_cache("ss-store");
    std::fs::remove_file(&cache).ok();
    std::fs::remove_file(&store).ok();
    let config = || {
        EngineConfig::default()
            .with_job_slots(1)
            .with_cache_path(&cache)
            .with_surrogate_store(&store)
    };
    let opts = || {
        let mut o = CoDesignOptions::quick(13)
            .with_backend(BackendKind::Surrogate)
            .with_adaptive_refinement(BackendKind::TraceSim, 2);
        o.hw_trials = 6;
        o
    };

    // First engine: one surrogate job; the store image is written at
    // wait() (observation-ordered), before any explicit persist.
    let first = {
        let engine = Engine::new(config());
        assert_eq!(engine.restored_surrogate_backends(), 0);
        let solution = engine
            .submit(CoDesignRequest::new(toy_input(), opts()))
            .unwrap()
            .wait()
            .unwrap();
        assert!(store.exists(), "wait() must save the surrogate store");
        engine.persist().unwrap();
        solution
    };
    assert!(first.stats.surrogate_samples > 0);

    // Second engine: restores the registry — non-zero restored
    // generation — and the repeat job starts from the first job's
    // training instead of re-paying it.
    {
        let engine = Engine::new(config().with_metrics(Telemetry::enabled()));
        assert_eq!(engine.restored_surrogate_backends(), 1);
        assert!(
            engine.restored_surrogate_generation() > 0,
            "restored generation must reflect the saved training"
        );
        assert_eq!(engine.surrogate_backends(), 1);
        let warm = engine
            .submit(CoDesignRequest::new(toy_input(), opts()))
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            warm.stats.surrogate_samples >= first.stats.surrogate_samples,
            "restore lost training: {} vs {}",
            warm.stats.surrogate_samples,
            first.stats.surrogate_samples
        );
        assert!(
            store_traffic(&engine).hits > 0,
            "restored generation must make the persisted memo reachable"
        );
    }

    // A corrupted store is a clean cold start, never an error.
    {
        let mut bytes = std::fs::read(&store).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&store, &bytes).unwrap();
        let engine = Engine::new(config());
        assert_eq!(engine.restored_surrogate_backends(), 0);
        assert_eq!(engine.restored_surrogate_generation(), 0);
        let cold = engine
            .submit(CoDesignRequest::new(toy_input(), opts()))
            .unwrap()
            .wait()
            .unwrap();
        assert!(cold.total.latency_cycles > 0.0);
    }
    std::fs::remove_file(&cache).ok();
    std::fs::remove_file(&store).ok();
}

/// The optimizer history a co-design job must reproduce: `opts.optimizer`
/// driving an `HwProblem` built from the same options, on a fresh screen
/// backend (so a surrogate screen starts untrained).
fn direct_history(input: &InputDescription, opts: &CoDesignOptions) -> dse::OptimizerResult {
    let generator = hw_gen::GemminiGenerator::new();
    let refine = opts.refine_backend.build_with(opts.tech.clone());
    let problem = HwProblem::new(
        &generator,
        &input.app.workloads,
        opts.sw_inner.clone(),
        opts.seed,
    )
    .with_workers(WorkerPool::new(resolve_threads(opts.threads)))
    .with_backend(opts.backend.build_with(opts.tech.clone()));
    let mut problem = if opts.adaptive_refinement {
        problem.with_adaptive_refinement(refine, opts.refine_top_k)
    } else {
        problem.with_refinement(refine, opts.refine_top_k)
    };
    opts.optimizer
        .build(opts.seed, opts.mobo_prior)
        .run(&mut problem, opts.hw_trials)
}

#[test]
fn baseline_optimizers_drive_the_full_pipeline() {
    // The optimizer axis: every method runs the identical engine path, and
    // a job's history is exactly what the method produces driving the
    // pricing pipeline directly — on the analytic screen and on a
    // surrogate screen refined adaptively by the trace-sim tier. This is
    // what lets the Fig. 10 and Table II harnesses run as engine jobs.
    let input = toy_input();
    let staged = CoDesignOptions::quick(17)
        .with_backend(BackendKind::Surrogate)
        .with_adaptive_refinement(BackendKind::TraceSim, 2);
    let cases = [
        (OptimizerKind::Random, CoDesignOptions::quick(17)),
        (OptimizerKind::Nsga2, CoDesignOptions::quick(17)),
        (OptimizerKind::Mobo, CoDesignOptions::quick(17)),
        (OptimizerKind::Mobo, staged.clone()),
    ];
    for (kind, opts) in cases {
        let opts = opts.with_optimizer(kind);
        let solution = CoDesigner::new(opts.clone()).run(&input).unwrap();
        assert_eq!(solution.hw_history.optimizer, kind.as_str());
        assert!(!solution.hw_history.evaluations.is_empty(), "{kind}");
        assert!(solution.total.latency_cycles > 0.0);
        assert_eq!(
            solution.hw_history,
            direct_history(&input, &opts),
            "{kind} on {}",
            opts.backend
        );
    }

    // Jobs submitted before any is awaited all fork the same registry
    // state, so two surrogate-screened jobs each match a run on a fresh
    // surrogate, whichever finishes first.
    let engine = Engine::new(EngineConfig::default().with_job_slots(2));
    let kinds = [OptimizerKind::Mobo, OptimizerKind::Random];
    let jobs = kinds.map(|kind| {
        engine
            .submit(CoDesignRequest::new(
                input.clone(),
                staged.clone().with_optimizer(kind),
            ))
            .unwrap()
    });
    for (job, kind) in jobs.iter().zip(kinds) {
        let solution = job.wait().unwrap();
        assert!(solution.stats.surrogate_samples > 0, "{kind} never trained");
        assert_eq!(
            solution.hw_history,
            direct_history(&input, &staged.clone().with_optimizer(kind)),
            "{kind}"
        );
    }
}

#[test]
fn one_shot_codesigner_is_bit_identical_to_an_engine_submission() {
    let input = toy_input();
    let opts = CoDesignOptions::quick(21);
    let one_shot = CoDesigner::new(opts.clone()).run(&input).unwrap();
    let engine = Engine::new(EngineConfig::default());
    let submitted = engine
        .submit(CoDesignRequest::new(input, opts))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(one_shot.accelerator, submitted.accelerator);
    assert_eq!(one_shot.hw_history, submitted.hw_history);
    assert_eq!(one_shot.stats, submitted.stats);
    assert_eq!(
        one_shot.total.latency_cycles,
        submitted.total.latency_cycles
    );
}
