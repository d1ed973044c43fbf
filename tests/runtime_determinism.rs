//! The parallel evaluation runtime's contract, end to end: fixed-seed
//! co-design runs are bitwise identical at any thread count, the memoizing
//! cost-model cache deduplicates equivalent work, and (on hosts with
//! enough cores) parallel evaluation is actually faster.

use hasco::codesign::{CoDesignOptions, CoDesigner};
use hasco::engine::Engine;
use hasco::input::{Constraints, GenerationMethod, InputDescription};
use tensor_ir::suites;
use tensor_ir::workload::TensorApp;

/// The engine's memo-store lookups so far (its `store` cache scope): a
/// miss is a software exploration run, a hit one answered from the store.
fn store_traffic(engine: &Engine) -> runtime::CacheStats {
    let snapshot = engine.metrics().expect("metrics are on");
    let store = snapshot.caches.iter().find(|c| c.scope == "store");
    store.expect("no store cache scope").total()
}

fn mixed_input(n_workloads: usize) -> InputDescription {
    let all = vec![
        suites::gemm_workload("g1", 256, 256, 256),
        suites::conv2d_workload("c1", 64, 64, 28, 28, 3, 3),
        suites::gemm_workload("g2", 128, 256, 128),
        suites::conv2d_workload("c2", 64, 32, 56, 56, 3, 3),
    ];
    InputDescription {
        app: TensorApp::new("mixed", all.into_iter().take(n_workloads).collect()),
        method: GenerationMethod::Gemmini,
        constraints: Constraints::default(),
    }
}

#[test]
fn parallel_and_serial_codesign_are_bitwise_identical() {
    let input = mixed_input(2);
    let serial = CoDesigner::new(CoDesignOptions::quick(42))
        .run(&input)
        .unwrap();
    let parallel = CoDesigner::new(CoDesignOptions::quick(42).with_threads(4))
        .run(&input)
        .unwrap();

    // The whole solution must match exactly (not approximately): the
    // chosen accelerator, every workload's schedule, metrics and program,
    // the totals, the exploration history evaluation for evaluation, and
    // the run statistics.
    assert_eq!(serial, parallel);
    assert_eq!(
        serial.total.latency_cycles.to_bits(),
        parallel.total.latency_cycles.to_bits()
    );
}

#[test]
fn auto_thread_selection_matches_serial_too() {
    // threads = 0 resolves to every available core — whatever that is on
    // the host, the solution must not change.
    let input = mixed_input(1);
    let serial = CoDesigner::new(CoDesignOptions::quick(7))
        .run(&input)
        .unwrap();
    let auto = CoDesigner::new(CoDesignOptions::quick(7).with_threads(0))
        .run(&input)
        .unwrap();
    assert_eq!(serial, auto);
}

#[test]
fn work_stealing_and_thread_count_never_change_results() {
    // The extended PR-invariant: the work-stealing scheduler, the
    // shared-counter scheduler, and the serial path all produce the
    // bitwise-identical solution at any thread count.
    let input = mixed_input(2);
    let reference = CoDesigner::new(CoDesignOptions::quick(19))
        .run(&input)
        .unwrap();
    for (threads, stealing) in [(1, false), (3, true), (4, true), (4, false)] {
        let solution = CoDesigner::new(
            CoDesignOptions::quick(19)
                .with_threads(threads)
                .with_work_stealing(stealing),
        )
        .run(&input)
        .unwrap();
        assert_eq!(reference, solution, "threads={threads} stealing={stealing}");
    }
}

#[test]
fn fidelity_staged_runs_are_thread_count_independent() {
    // Staging picks survivors from screened batch responses; that choice
    // — and therefore the whole optimizer trajectory — must not depend on
    // worker count or stealing.
    let input = mixed_input(2);
    let opts = |threads: usize, stealing: bool| {
        CoDesignOptions::quick(23)
            .with_refinement(accel_model::BackendKind::TraceSim, 2)
            .with_threads(threads)
            .with_work_stealing(stealing)
    };
    let serial = CoDesigner::new(opts(1, false)).run(&input).unwrap();
    let parallel = CoDesigner::new(opts(4, true)).run(&input).unwrap();
    assert_eq!(serial, parallel);
    assert!(serial.stats.refine_explorations > 0);
}

#[test]
fn adaptive_topk_trajectories_are_identical_across_threads_and_stealing() {
    // The adaptive controller resizes the refine budget from screen-vs-
    // refine rank disagreement; that evidence — and therefore the whole
    // top-k trajectory, the Pareto front, and the solution — must be a
    // pure function of batch content at 1, 2, and 8 threads, with and
    // without work-stealing.
    let input = mixed_input(2);
    let opts = |threads: usize, stealing: bool| {
        CoDesignOptions::quick(29)
            .with_adaptive_refinement(accel_model::BackendKind::TraceSim, 3)
            .with_threads(threads)
            .with_work_stealing(stealing)
    };
    let reference = CoDesigner::new(opts(1, false)).run(&input).unwrap();
    assert!(
        !reference.stats.refine_topk_trajectory.is_empty(),
        "adaptive runs must record a top-k trajectory"
    );
    assert!(reference.stats.refine_explorations > 0);
    for (threads, stealing) in [(2, true), (8, true), (8, false)] {
        let solution = CoDesigner::new(opts(threads, stealing))
            .run(&input)
            .unwrap();
        // Whole-solution equality covers the trajectory (in `stats`), the
        // history and therefore the Pareto front.
        assert_eq!(reference, solution, "threads={threads} stealing={stealing}");
    }
}

#[test]
fn incremental_and_full_refit_surrogate_engines_are_bit_identical() {
    // The surrogate's default incremental-Cholesky trainer (O(n²) per
    // observation) against the from-scratch reference refit (O(n³)), on
    // a surrogate-heavy adaptive staged MOBO run at 2 threads: the
    // learning trajectory, the whole hardware history, and every
    // objective must agree to the bit.
    use accel_model::{CostModel, SurrogateBackend, TraceSimBackend};
    use hasco::codesign::HwProblem;
    use hasco::OptimizerKind;
    use std::sync::Arc;

    let input = mixed_input(2);
    let opts = CoDesignOptions::quick(31);
    let generator = hw_gen::GemminiGenerator::new();
    let run = |full_refit: bool| {
        let model = CostModel::default();
        let inner = Arc::new(TraceSimBackend::new(model.clone()));
        let surrogate = SurrogateBackend::new(model.clone(), inner);
        let screen = if full_refit {
            surrogate.with_full_refit()
        } else {
            surrogate
        };
        let mut problem = HwProblem::new(
            &generator,
            &input.app.workloads,
            opts.sw_inner.clone(),
            opts.seed,
        )
        .with_workers(runtime::WorkerPool::new(2))
        .with_backend(Arc::new(screen))
        .with_adaptive_refinement(Arc::new(TraceSimBackend::new(model)), 2);
        let history = OptimizerKind::Mobo
            .build(opts.seed, opts.mobo_prior)
            .run(&mut problem, opts.hw_trials);
        (history, problem.surrogate_stats())
    };
    let (incremental, incremental_stats) = run(false);
    let (reference, reference_stats) = run(true);
    let (samples, _) = incremental_stats.expect("the screen tier is a surrogate");
    assert!(samples > 0, "the surrogate never trained");
    assert_eq!(incremental_stats, reference_stats);
    assert_eq!(incremental, reference);
    let bits = |history: &dse::problem::OptimizerResult| -> Vec<u64> {
        let objectives = history.evaluations.iter().flat_map(|e| &e.objectives);
        objectives.map(|o| o.to_bits()).collect()
    };
    assert_eq!(bits(&incremental), bits(&reference));
}

#[test]
fn surrogate_screen_tier_is_thread_count_independent() {
    // The surrogate trains between batches (serially, in batch order);
    // its training trajectory — and everything priced through it — must
    // not depend on worker count.
    let input = mixed_input(2);
    let opts = |threads: usize| {
        CoDesignOptions::quick(31)
            .with_backend(accel_model::BackendKind::Surrogate)
            .with_adaptive_refinement(accel_model::BackendKind::TraceSim, 2)
            .with_threads(threads)
    };
    let serial = CoDesigner::new(opts(1)).run(&input).unwrap();
    let parallel = CoDesigner::new(opts(4)).run(&input).unwrap();
    assert!(serial.stats.surrogate_samples > 0);
    assert_eq!(serial, parallel);
}

#[test]
fn memo_cache_deduplicates_equivalent_workloads() {
    // Two workloads with identical loop nests (names differ — names are
    // reporting-only) share evaluation fingerprints, so every design
    // point's second workload is answered from the memo cache.
    let input = InputDescription {
        app: TensorApp::new(
            "twins",
            vec![
                suites::gemm_workload("left", 256, 256, 256),
                suites::gemm_workload("right", 256, 256, 256),
            ],
        ),
        method: GenerationMethod::Gemmini,
        constraints: Constraints::default(),
    };
    let opts = CoDesignOptions::quick(3).with_threads(2);
    let engine = Engine::new(
        hasco::engine::EngineConfig::one_shot(&opts).with_metrics(runtime::Telemetry::enabled()),
    );
    let solution = engine
        .submit(hasco::engine::CoDesignRequest::new(input, opts))
        .unwrap()
        .wait()
        .unwrap();
    let hits = store_traffic(&engine).hits;
    let evaluations = solution.stats.hw_evaluations;
    assert!(
        hits >= evaluations as u64,
        "expected one memo hit per evaluated point, got {hits} hits over {evaluations} evaluations",
    );
    // Twins must also land on the same optimized latency.
    assert_eq!(
        solution.per_workload[0].metrics.latency_cycles,
        solution.per_workload[1].metrics.latency_cycles,
    );
}

#[test]
fn parallel_codesign_is_faster_on_multicore_hosts() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 4 {
        eprintln!("skipping speedup check: only {cores} core(s) available");
        return;
    }
    let input = mixed_input(4);
    let mut opts = CoDesignOptions::quick(11);
    opts.hw_trials = 6;

    // Warm up (build caches, fault pages) so timing compares steady state.
    let _ = CoDesigner::new(opts.clone()).run(&input).unwrap();

    // Best-of-two per mode: min wall time is far less sensitive to a
    // concurrent test binary stealing the cores mid-run than a single
    // sample, and a 4-workload quick() run has enough parallel work that
    // real speedup dwarfs the remaining noise.
    let mut serial = None;
    let mut t_serial = std::time::Duration::MAX;
    let mut t_parallel = std::time::Duration::MAX;
    let mut parallel = None;
    for _ in 0..2 {
        let t = std::time::Instant::now();
        serial = Some(CoDesigner::new(opts.clone()).run(&input).unwrap());
        t_serial = t_serial.min(t.elapsed());

        let t = std::time::Instant::now();
        parallel = Some(
            CoDesigner::new(opts.clone().with_threads(4))
                .run(&input)
                .unwrap(),
        );
        t_parallel = t_parallel.min(t.elapsed());
    }
    let (serial, parallel) = (serial.unwrap(), parallel.unwrap());

    assert_eq!(
        serial.hw_history, parallel.hw_history,
        "speedup must not change results"
    );
    assert!(
        t_parallel.as_secs_f64() < t_serial.as_secs_f64() * 0.9,
        "threads = 4 ({t_parallel:?}) should measurably beat threads = 1 ({t_serial:?}) on {cores} cores",
    );
    eprintln!(
        "codesign speedup on {cores} cores: {:.2}x ({t_serial:?} -> {t_parallel:?})",
        t_serial.as_secs_f64() / t_parallel.as_secs_f64(),
    );
}

mod engine_concurrency {
    //! The engine extension of the invariant: *concurrent job
    //! interleaving never changes any job's results* — solutions, run
    //! statistics, and event streams are bit-identical whether a job runs
    //! alone through the one-shot API or alongside other jobs on a
    //! multi-slot engine, whatever the shared stores already hold.

    use super::{mixed_input, store_traffic};
    use hasco::codesign::{CoDesignOptions, CoDesigner};
    use hasco::engine::{CoDesignRequest, Engine, EngineConfig};
    use hasco::event::RunEvent;
    use hasco::input::{Constraints, InputDescription};
    use hasco::{HascoError, Solution};
    use runtime::Telemetry;

    fn requests() -> Vec<(InputDescription, CoDesignOptions)> {
        vec![
            (mixed_input(2), CoDesignOptions::quick(42)),
            (mixed_input(1), CoDesignOptions::quick(7)),
            // A staged job, and one stealing across 2 threads.
            (
                mixed_input(2),
                CoDesignOptions::quick(23).with_refinement(accel_model::BackendKind::TraceSim, 2),
            ),
            (mixed_input(2), CoDesignOptions::quick(19).with_threads(2)),
        ]
    }

    #[test]
    fn concurrent_engine_jobs_match_one_shot_runs_bit_for_bit() {
        // References: each job alone, through the one-shot wrapper.
        let solo: Vec<_> = requests()
            .iter()
            .map(|(input, opts)| CoDesigner::new(opts.clone()).run(input).unwrap())
            .collect();

        // The same jobs submitted together on a fresh 4-slot engine: all
        // four run concurrently, sharing one live store.
        let engine = Engine::new(EngineConfig::default().with_job_slots(4));
        let handles: Vec<_> = requests()
            .into_iter()
            .map(|(input, opts)| {
                engine
                    .submit(CoDesignRequest::new(input, opts))
                    .expect("submit succeeds")
            })
            .collect();
        for (handle, reference) in handles.iter().zip(&solo) {
            let concurrent = handle.wait().unwrap();
            // The whole solution, runtime statistics included.
            assert_eq!(reference, &concurrent);
        }
        assert_eq!(engine.jobs_executed(), 4);
    }

    #[test]
    fn warm_second_job_reports_cache_hits_from_the_first() {
        let engine = Engine::new(
            EngineConfig::default()
                .with_job_slots(2)
                .with_metrics(Telemetry::enabled()),
        );
        let input = mixed_input(2);
        let request = || CoDesignRequest::new(input.clone(), CoDesignOptions::quick(5));

        assert_eq!(engine.warm_entries(), 0);
        let first = engine.submit(request()).unwrap().wait().unwrap();
        let cold = store_traffic(&engine);

        // The first job left its memo entries in the store, so an
        // identical second job starts warm and recomputes strictly less —
        // while producing the identical solution.
        assert!(
            engine.warm_entries() > 0,
            "second job saw no warmth from the first"
        );
        let second = engine.submit(request()).unwrap().wait().unwrap();
        let second_misses = store_traffic(&engine).misses - cold.misses;
        assert!(
            second_misses < cold.misses,
            "warm job recomputed as much as cold: {second_misses} vs {}",
            cold.misses
        );
        assert_eq!(first, second);
    }

    fn event_stream(opts: CoDesignOptions) -> (Vec<RunEvent>, hasco::Solution) {
        let engine = Engine::new(EngineConfig::default().with_job_slots(1));
        let handle = engine
            .submit(CoDesignRequest::new(mixed_input(2), opts).with_label("probe"))
            .unwrap();
        let events: Vec<RunEvent> = handle.events().collect();
        (events, handle.wait().unwrap())
    }

    #[test]
    fn event_streams_are_well_formed_and_thread_count_independent() {
        let opts = |threads: usize| {
            CoDesignOptions::quick(29)
                .with_threads(threads)
                .with_refinement(accel_model::BackendKind::TraceSim, 2)
        };
        let (serial_events, serial) = event_stream(opts(1));
        let (parallel_events, parallel) = event_stream(opts(4));

        // Shape: Started first, Solved last, partitions for both
        // workloads, DSE batches and staged refinements in between.
        assert!(matches!(serial_events[0], RunEvent::Started { .. }));
        assert!(matches!(
            serial_events.last().unwrap(),
            RunEvent::Solved { .. }
        ));
        let count = |pred: fn(&RunEvent) -> bool| serial_events.iter().filter(|e| pred(e)).count();
        assert_eq!(count(|e| matches!(e, RunEvent::Partitioned { .. })), 2);
        assert!(count(|e| matches!(e, RunEvent::BatchEvaluated { .. })) > 0);
        assert!(count(|e| matches!(e, RunEvent::Refined { .. })) > 0);
        assert!(count(|e| matches!(e, RunEvent::SoftwareOptimized { .. })) >= 2);
        assert_eq!(count(|e| matches!(e, RunEvent::Solved { .. })), 1);

        // Determinism: the whole typed stream is bit-identical across
        // thread counts, like the solutions themselves.
        assert_eq!(serial_events, parallel_events);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn restarted_engine_is_bit_identical_to_a_long_lived_one() {
        // The warm-restart contract: an engine restored from persisted
        // images (memo cache + surrogate store) prices exactly like a
        // process that never exited — same solutions, same RunStats, same
        // event streams, bit for bit.
        let mut cache = std::env::temp_dir();
        cache.push(format!("hasco-restart-cache-{}.bin", std::process::id()));
        let mut store = std::env::temp_dir();
        store.push(format!("hasco-restart-store-{}.bin", std::process::id()));
        std::fs::remove_file(&cache).ok();
        std::fs::remove_file(&store).ok();

        // A surrogate-screened, staged job trains warm state worth
        // persisting; the second job consumes it.
        let opts = |seed: u64| {
            let mut o = CoDesignOptions::quick(seed)
                .with_backend(accel_model::BackendKind::Surrogate)
                .with_adaptive_refinement(accel_model::BackendKind::TraceSim, 2);
            o.hw_trials = 6;
            o
        };
        let first = || CoDesignRequest::new(mixed_input(2), opts(51)).with_label("first");
        let second = || CoDesignRequest::new(mixed_input(2), opts(52)).with_label("second");
        let run_second = |engine: &Engine| {
            let handle = engine.submit(second()).unwrap();
            let solution = handle.wait().unwrap();
            let events: Vec<RunEvent> = handle.events().collect();
            (solution, events)
        };

        // Reference: one long-lived engine, never restarted.
        let (ref_solution, ref_events) = {
            let engine = Engine::new(EngineConfig::default().with_job_slots(1));
            let warmup = engine.submit(first()).unwrap().wait().unwrap();
            assert!(warmup.stats.surrogate_samples > 0);
            run_second(&engine)
        };

        // Restarted: the first job runs on an engine that persists, then
        // a fresh engine restores from the images and runs the second.
        let config = || {
            EngineConfig::default()
                .with_job_slots(1)
                .with_cache_path(&cache)
                .with_surrogate_store(&store)
        };
        {
            let engine = Engine::new(config());
            engine.submit(first()).unwrap().wait().unwrap();
            engine.persist().unwrap();
        }
        let restored = Engine::new(config());
        assert!(restored.restored_surrogate_generation() > 0);
        let (warm_solution, warm_events) = run_second(&restored);

        // The whole solution, statistics included: the restored warm
        // state must be indistinguishable from the resident one (same
        // surrogate trajectory, same solution bits).
        assert_eq!(ref_solution, warm_solution);
        assert_eq!(
            ref_solution.total.latency_cycles.to_bits(),
            warm_solution.total.latency_cycles.to_bits()
        );
        for (a, b) in ref_solution
            .per_workload
            .iter()
            .zip(&warm_solution.per_workload)
        {
            assert_eq!(
                a.metrics.latency_cycles.to_bits(),
                b.metrics.latency_cycles.to_bits()
            );
        }
        assert_eq!(ref_events, warm_events, "event stream diverged");

        // Corrupting both images degrades to a clean cold start — never
        // an error — identical to a job on a fresh engine.
        for path in [&cache, &store] {
            let mut bytes = std::fs::read(path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(path, &bytes).unwrap();
        }
        let corrupt = Engine::new(config());
        assert_eq!(corrupt.restored_surrogate_generation(), 0);
        let (cold_solution, cold_events) = run_second(&corrupt);
        let fresh = Engine::new(EngineConfig::default().with_job_slots(1));
        let (fresh_solution, fresh_events) = run_second(&fresh);
        assert_eq!(cold_solution, fresh_solution);
        assert_eq!(cold_events, fresh_events);

        std::fs::remove_file(&cache).ok();
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn stored_final_explorations_change_nothing() {
        // The finals store is read live, with no per-job snapshot, so a
        // hit must be unobservable. One request runs three ways: finals
        // cold; finals warm in the same engine, written by an earlier job
        // of the same request; and finals restored from a persisted
        // image. Whole solutions and event streams must be equal, at 1
        // and 2 threads, and each warm run must read its finals from the
        // store.
        let finals_hits = |engine: &Engine| {
            let snapshot = engine.metrics().expect("metrics are on");
            let finals = snapshot.caches.iter().find(|c| c.scope == "finals");
            finals.expect("no finals cache scope").total().hits
        };
        for threads in [1, 2] {
            let mut path = std::env::temp_dir();
            path.push(format!("hasco-finals-{threads}-{}.bin", std::process::id()));
            std::fs::remove_file(&path).ok();
            let config = || {
                EngineConfig::default()
                    .with_job_slots(1)
                    .with_cache_path(&path)
                    .with_metrics(Telemetry::enabled())
            };
            let request = || {
                let opts = CoDesignOptions::quick(61).with_threads(threads);
                CoDesignRequest::new(mixed_input(2), opts).with_label("finals")
            };

            let engine = Engine::new(config());
            let cold = engine.submit(request()).unwrap();
            // The stream ends after `Solved`, so the job's finals are in.
            let cold_events: Vec<RunEvent> = cold.events().collect();
            assert_eq!(engine.final_entries(), 2);
            // The image holds the finals and every memo entry the job
            // wrote, although nobody has waited on it.
            assert_eq!(engine.persist().unwrap(), engine.warm_entries() as u64);
            let before = finals_hits(&engine);

            let warm = engine.submit(request()).unwrap();
            let warm_events: Vec<RunEvent> = warm.events().collect();
            let warm_solution = warm.wait().unwrap();
            assert!(finals_hits(&engine) > before, "threads={threads}");

            let restored = Engine::new(config());
            assert_eq!(restored.final_entries(), 2);
            let handle = restored.submit(request()).unwrap();
            let restored_events: Vec<RunEvent> = handle.events().collect();
            let restored_solution = handle.wait().unwrap();
            assert!(finals_hits(&restored) > 0, "threads={threads}");

            let cold_solution = cold.wait().unwrap();
            assert_eq!(cold_solution, warm_solution, "threads={threads}");
            assert_eq!(cold_solution, restored_solution, "threads={threads}");
            assert_eq!(cold_events, warm_events, "threads={threads}");
            assert_eq!(cold_events, restored_events, "threads={threads}");
            drop((engine, restored));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn stored_acquisitions_change_nothing() {
        // Every MOBO run of a job, step 2's and each retuning round's,
        // reads the acquisition store live, so a hit must be
        // unobservable. Two requests, one whose unreachable latency cap
        // makes it retune and one refining adaptively on a staged tier,
        // run three ways: acquisitions cold; warm in the same engine,
        // stored by the earlier jobs; and restored from a persisted image.
        // Whole solutions and event streams must be equal at 1 and 2
        // threads, and each warm leg must answer every acquisition from
        // the store and score none.
        let acquisitions = |engine: &Engine| {
            let snapshot = engine.metrics().expect("metrics are on");
            let scope = snapshot.caches.iter().find(|c| c.scope == "acquisitions");
            scope.expect("no acquisitions cache scope").total()
        };
        let requests = |threads: usize| {
            let mut unreachable = mixed_input(2);
            unreachable.constraints = Constraints::latency_power(1e-9, 1e9);
            let retune = CoDesignOptions::quick(71).with_threads(threads);
            let staged = CoDesignOptions::quick(73)
                .with_threads(threads)
                .with_adaptive_refinement(accel_model::BackendKind::TraceSim, 2);
            vec![
                CoDesignRequest::new(unreachable, retune).with_label("retune"),
                CoDesignRequest::new(mixed_input(2), staged).with_label("staged"),
            ]
        };
        let run = |engine: &Engine, threads: usize| -> Vec<(Solution, Vec<RunEvent>)> {
            requests(threads)
                .into_iter()
                .map(|request| {
                    let handle = engine.submit(request).unwrap();
                    let events = handle.events().collect();
                    (handle.wait().unwrap(), events)
                })
                .collect()
        };
        for threads in [1, 2] {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "hasco-acquisitions-{threads}-{}.bin",
                std::process::id()
            ));
            std::fs::remove_file(&path).ok();
            let config = || {
                EngineConfig::default()
                    .with_job_slots(1)
                    .with_cache_path(&path)
                    .with_metrics(Telemetry::enabled())
            };

            let engine = Engine::new(config());
            let cold = run(&engine, threads);
            let retuned = |e: &RunEvent| matches!(e, RunEvent::Tuned { round: 1.., .. });
            assert!(cold[0].1.iter().any(retuned), "threads={threads}");
            engine.persist().unwrap();
            let scored = acquisitions(&engine);
            assert!(scored.inserts > 0, "threads={threads}");

            let warm = run(&engine, threads);
            let traffic = acquisitions(&engine);
            assert!(traffic.hits > scored.hits, "threads={threads}");
            assert_eq!(traffic.misses, scored.misses, "threads={threads}");
            assert_eq!(traffic.inserts, scored.inserts, "threads={threads}");

            let restored = Engine::new(config());
            assert_eq!(restored.acquisition_entries(), engine.acquisition_entries());
            let restored_runs = run(&restored, threads);
            let traffic = acquisitions(&restored);
            assert!(traffic.hits > 0, "threads={threads}");
            assert_eq!(traffic.misses, 0, "threads={threads}");

            assert_eq!(cold, warm, "threads={threads}");
            assert_eq!(cold, restored_runs, "threads={threads}");
            drop((engine, restored));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn live_store_entries_change_nothing() {
        // Every job reads and writes the pair memo live, so whether an
        // entry is there when a job looks, and which job computed it, must
        // be unobservable. One request runs five ways: alone on a fresh
        // engine; after an identical job finished but was never waited
        // on; concurrently with that identical job on two slots; after a
        // cancelled copy of it; and on an engine restored from a persisted
        // image. Whole solutions and event streams must be equal at 1 and
        // 2 threads, and every warm leg must price from the store. The
        // concurrent leg races its twin for the store, so none of its
        // counters is asserted.
        for threads in [1, 2] {
            let mut path = std::env::temp_dir();
            path.push(format!("hasco-live-{threads}-{}.bin", std::process::id()));
            std::fs::remove_file(&path).ok();
            let engine = |slots: usize| {
                Engine::new(
                    EngineConfig::default()
                        .with_job_slots(slots)
                        .with_metrics(Telemetry::enabled()),
                )
            };
            let request = || {
                let opts = CoDesignOptions::quick(67).with_threads(threads);
                CoDesignRequest::new(mixed_input(2), opts).with_label("live")
            };
            let run = |engine: &Engine| -> (Solution, Vec<RunEvent>) {
                let handle = engine.submit(request()).unwrap();
                let events = handle.events().collect();
                (handle.wait().unwrap(), events)
            };
            let leg = |name: &str| format!("{name} leg, threads={threads}");

            let fresh = engine(1);
            let reference = run(&fresh);
            let fresh_misses = store_traffic(&fresh).misses;
            assert!(fresh_misses > 0);

            // A finished twin nobody waited on: every pair is a hit.
            let warm = engine(1);
            let twin = warm.submit(request()).unwrap();
            while !twin.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let before = store_traffic(&warm);
            assert_eq!(run(&warm), reference, "{}", leg("finished-twin"));
            let after = store_traffic(&warm);
            assert!(after.hits > before.hits, "{}", leg("finished-twin"));
            assert_eq!(after.misses, before.misses, "{}", leg("finished-twin"));
            assert_eq!(twin.wait().unwrap(), reference.0);

            // Racing the twin on two slots.
            let racing = engine(2);
            let handles = [(); 2].map(|_| racing.submit(request()).unwrap());
            for handle in handles {
                let events: Vec<RunEvent> = handle.events().collect();
                let solution = handle.wait().unwrap();
                assert_eq!((solution, events), reference, "{}", leg("concurrent"));
            }

            // A copy cancelled once its first batch was priced.
            let cancelled = engine(1);
            let copy = cancelled.submit(request()).unwrap();
            let mut copy_events = copy.events();
            while !matches!(
                copy_events.next(),
                Some(RunEvent::BatchEvaluated { .. }) | None
            ) {}
            copy.cancel();
            match copy.wait() {
                Err(HascoError::Cancelled) => {}
                // A cancel landing after completion is a no-op.
                Ok(done) => assert_eq!(done, reference.0),
                Err(e) => panic!("cancelled copy failed: {e}"),
            }
            let before = store_traffic(&cancelled);
            assert_eq!(run(&cancelled), reference, "{}", leg("after-cancel"));
            let after = store_traffic(&cancelled);
            assert!(after.hits > before.hits, "{}", leg("after-cancel"));
            assert!(
                after.misses - before.misses < fresh_misses,
                "{}",
                leg("after-cancel")
            );

            // Restored from an image of the whole request's entries.
            {
                let writer = Engine::new(EngineConfig::default().with_cache_path(&path));
                run(&writer);
                writer.persist().unwrap();
            }
            let restored = Engine::new(
                EngineConfig::default()
                    .with_job_slots(1)
                    .with_cache_path(&path)
                    .with_metrics(Telemetry::enabled()),
            );
            assert!(restored.warm_entries() > 0);
            assert_eq!(run(&restored), reference, "{}", leg("restored"));
            let traffic = store_traffic(&restored);
            assert!(traffic.hits > 0, "{}", leg("restored"));
            assert_eq!(traffic.misses, 0, "{}", leg("restored"));
            drop(restored);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn telemetry_never_changes_results() {
        // The observability contract: telemetry is a wall-clock side
        // channel, so enabling it must not move a single result bit —
        // same solutions, same RunStats, same event streams — at any
        // thread count, with or without stealing, and across a restart.
        use runtime::TelemetrySnapshot;

        let opts = |seed: u64, threads: usize, stealing: bool| {
            CoDesignOptions::quick(seed)
                .with_backend(accel_model::BackendKind::Surrogate)
                .with_adaptive_refinement(accel_model::BackendKind::TraceSim, 2)
                .with_threads(threads)
                .with_work_stealing(stealing)
        };
        let run = |engine: &Engine, opts: CoDesignOptions| {
            let handle = engine
                .submit(CoDesignRequest::new(mixed_input(2), opts).with_label("probe"))
                .unwrap();
            let events: Vec<RunEvent> = handle.events().collect();
            let solution = handle.wait().unwrap();
            let snapshot = engine.metrics();
            (solution, events, snapshot)
        };
        let assert_snapshot_nontrivial = |snapshot: &Option<TelemetrySnapshot>| {
            let snapshot = snapshot.as_ref().expect("metrics-on engine snapshots");
            let count = |name: &str| {
                let timing = snapshot.timings.iter().find(|(n, _)| n == name);
                timing.map_or(0, |(_, h)| h.count)
            };
            assert!(
                snapshot.timings.iter().any(|(n, _)| n == "job"),
                "no job span recorded"
            );
            assert!(
                snapshot
                    .timings
                    .iter()
                    .any(|(n, _)| n == "job/hw_dse/screen"),
                "no screen span recorded"
            );
            assert!(
                snapshot
                    .timings
                    .iter()
                    .any(|(n, h)| n.starts_with("sw_explore/") && h.count > 0),
                "no tier evaluations recorded"
            );
            assert!(count("gp/fit") > 0, "surrogate run recorded no GP fits");
            // MOBO's acquisitions, and their three parts as children.
            for name in [
                "job/hw_dse/acquire",
                "job/hw_dse/acquire/fit",
                "job/hw_dse/acquire/candidates",
                "job/hw_dse/acquire/score",
            ] {
                assert!(count(name) > 0, "no {name} timings recorded");
            }
            // The inner (screen and refine) explorers and the final one
            // report their phases under separate names.
            for scope in ["sw_opt", "sw_opt/final"] {
                for phase in ["context", "pool_init", "propose", "lower", "learn"] {
                    let name = format!("{scope}/{phase}");
                    assert!(count(&name) > 0, "no {name} timings recorded");
                }
            }
            assert!(count("pool/batch") > 0, "no pool batches recorded");
            assert!(
                snapshot.caches.iter().any(|c| c.total().misses > 0),
                "no cache traffic recorded"
            );
        };

        for (threads, stealing) in [(1, false), (2, true), (8, true), (8, false)] {
            let (on, on_events, on_snapshot) = run(
                &Engine::new(
                    EngineConfig::default()
                        .with_job_slots(1)
                        .with_metrics(Telemetry::enabled()),
                ),
                opts(37, threads, stealing),
            );
            let (off, off_events, off_snapshot) = run(
                &Engine::new(EngineConfig::default().with_job_slots(1)),
                opts(37, threads, stealing),
            );
            assert!(off_snapshot.is_none(), "metrics-off engine has no snapshot");
            assert_snapshot_nontrivial(&on_snapshot);
            assert_eq!(on, off, "threads={threads} stealing={stealing}");
            assert_eq!(
                on.total.latency_cycles.to_bits(),
                off.total.latency_cycles.to_bits()
            );
            for (a, b) in on.per_workload.iter().zip(&off.per_workload) {
                assert_eq!(
                    a.metrics.latency_cycles.to_bits(),
                    b.metrics.latency_cycles.to_bits()
                );
            }
            assert_eq!(
                on_events, off_events,
                "event stream diverged at threads={threads} stealing={stealing}"
            );
        }

        // Restart leg: persisting and restoring with metrics on restores
        // the identical warm state a metrics-off engine would.
        let mut cache = std::env::temp_dir();
        cache.push(format!("hasco-telemetry-cache-{}.bin", std::process::id()));
        let restart = |metrics: bool| {
            std::fs::remove_file(&cache).ok();
            let config = || {
                let c = EngineConfig::default()
                    .with_job_slots(1)
                    .with_cache_path(&cache);
                if metrics {
                    c.with_metrics(Telemetry::enabled())
                } else {
                    c
                }
            };
            {
                let engine = Engine::new(config());
                engine
                    .submit(CoDesignRequest::new(mixed_input(2), opts(61, 2, true)))
                    .unwrap()
                    .wait()
                    .unwrap();
                engine.persist().unwrap();
            }
            let restarted = Engine::new(config());
            assert!(restarted.warm_entries() > 0, "restart was not warm");
            run(&restarted, opts(62, 2, true))
        };
        let (warm_on, warm_on_events, warm_on_snapshot) = restart(true);
        let (warm_off, warm_off_events, _) = restart(false);
        std::fs::remove_file(&cache).ok();
        assert_snapshot_nontrivial(&warm_on_snapshot);
        assert_eq!(warm_on, warm_off);
        assert_eq!(warm_on_events, warm_off_events);
    }

    #[test]
    fn event_streams_are_identical_under_concurrent_interleaving() {
        let opts = || CoDesignOptions::quick(31);
        let (solo_events, _) = event_stream(opts());

        let engine = Engine::new(EngineConfig::default().with_job_slots(3));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                engine
                    .submit(CoDesignRequest::new(mixed_input(2), opts()).with_label("probe"))
                    .unwrap()
            })
            .collect();
        for handle in handles {
            let events: Vec<RunEvent> = handle.events().collect();
            handle.wait().unwrap();
            assert_eq!(events, solo_events, "stream diverged under concurrency");
        }
    }
}

mod network_serving {
    //! The network extension of the invariant: *remote worker dispatch
    //! never changes any job's results*. A campaign served over TCP with
    //! expensive batches sharded across worker processes — any number of
    //! them, including one dying mid-batch — is bit-identical to the
    //! same requests run in-process: solutions, `RunStats`, and event
    //! streams.

    use super::mixed_input;
    use hasco::codesign::CoDesignOptions;
    use hasco::engine::{CoDesignRequest, Engine, EngineConfig};
    use hasco::event::RunEvent;
    use hasco_net::{Client, Server, ServerOptions, WorkerHandle};

    /// A staged run whose refine tier (TraceSim) is remote-eligible, so
    /// served legs actually ship batches to workers.
    fn staged_request(seed: u64) -> CoDesignRequest {
        CoDesignRequest::new(
            mixed_input(2),
            CoDesignOptions::quick(seed).with_refinement(accel_model::BackendKind::TraceSim, 2),
        )
        .with_label("net-probe")
    }

    fn reference(seed: u64) -> (hasco::Solution, Vec<RunEvent>) {
        let engine = Engine::new(EngineConfig::default().with_job_slots(1));
        let handle = engine.submit(staged_request(seed)).unwrap();
        let events: Vec<RunEvent> = handle.events().collect();
        (handle.wait().unwrap(), events)
    }

    /// Runs the same request through a fresh server with the given
    /// worker fleet; returns (solution, events, batches the fleet
    /// actually served).
    fn served(seed: u64, workers: usize, flaky: bool) -> (hasco::Solution, Vec<RunEvent>, u64) {
        let opts = ServerOptions {
            min_workers: workers + usize::from(flaky),
            ..ServerOptions::default()
        };
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig::default().with_job_slots(1),
            opts,
        )
        .expect("bind loopback");
        let addr = server.addr().to_string();
        let mut fleet = Vec::new();
        if flaky {
            // Reads its first BatchRequest, then drops the connection
            // without replying: a deterministic mid-batch death.
            fleet.push(WorkerHandle::spawn_flaky(&addr, 0));
        }
        for _ in 0..workers {
            fleet.push(WorkerHandle::spawn(&addr));
        }

        let client = Client::connect(&addr).expect("hello handshake");
        let job = client.submit(staged_request(seed)).expect("remote submit");
        let events: Vec<RunEvent> = job.events().collect();
        let solution = job.wait().expect("remote job solves");
        server.shutdown();
        let batches = fleet
            .into_iter()
            .map(|w| w.join().unwrap_or(0))
            .sum::<u64>();
        (solution, events, batches)
    }

    fn assert_identical(
        reference: &(hasco::Solution, Vec<RunEvent>),
        solution: &hasco::Solution,
        events: &[RunEvent],
        leg: &str,
    ) {
        let (expected, expected_events) = reference;
        // The whole solution, statistics included: same eval counts, same
        // memo hit/miss pattern — dispatch routing is invisible to it.
        assert_eq!(expected, solution, "{leg}");
        assert_eq!(
            expected.total.latency_cycles.to_bits(),
            solution.total.latency_cycles.to_bits(),
            "{leg}"
        );
        for (a, b) in expected.per_workload.iter().zip(&solution.per_workload) {
            assert_eq!(
                a.metrics.latency_cycles.to_bits(),
                b.metrics.latency_cycles.to_bits(),
                "{leg}"
            );
        }
        assert_eq!(expected_events, &events, "event stream diverged: {leg}");
    }

    #[test]
    fn remote_dispatch_is_bit_identical_at_any_worker_count() {
        let expected = reference(23);
        assert!(expected.0.stats.refine_explorations > 0);

        for workers in [0, 1, 3] {
            let (solution, events, batches) = served(23, workers, false);
            assert_identical(&expected, &solution, &events, &format!("{workers} workers"));
            if workers > 0 {
                assert!(
                    batches > 0,
                    "{workers}-worker leg never dispatched remotely"
                );
            }
        }
    }

    #[test]
    fn kept_connections_serve_jobs_in_turn_and_at_once_bit_identically() {
        let expected = [reference(23), reference(29)];
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig::default().with_job_slots(2),
            ServerOptions::default(),
        )
        .expect("bind loopback");
        let client = Client::connect(server.addr().to_string()).expect("hello handshake");

        // One after the other: both jobs run on the connection the hello
        // opened.
        for (seed, expected) in [23, 29].into_iter().zip(&expected) {
            let job = client.submit(staged_request(seed)).expect("remote submit");
            let events: Vec<RunEvent> = job.events().collect();
            let solution = job.wait().expect("remote job solves");
            assert_identical(
                expected,
                &solution,
                &events,
                &format!("in turn, seed {seed}"),
            );
        }
        // Both at once: the second submit opens a second connection, and
        // each stream is read after both jobs were admitted.
        let jobs: Vec<_> = [23, 29]
            .into_iter()
            .map(|seed| client.submit(staged_request(seed)).expect("remote submit"))
            .collect();
        for (job, expected) in jobs.iter().zip(&expected) {
            let events: Vec<RunEvent> = job.events().collect();
            let solution = job.wait().expect("remote job solves");
            assert_identical(expected, &solution, &events, "at once");
        }
        server.shutdown();
    }

    #[test]
    fn a_worker_dying_mid_batch_changes_nothing() {
        let expected = reference(23);
        // One healthy worker plus one that dies without replying to its
        // first batch: the dead worker's shard re-dispatches to the
        // survivor (or in-process), bit-identically.
        let (solution, events, batches) = served(23, 1, true);
        assert_identical(&expected, &solution, &events, "flaky leg");
        assert!(batches > 0, "survivor served nothing");
    }

    #[test]
    fn served_campaigns_match_in_process_campaigns_bit_for_bit() {
        // A matrix with a deduplicated scenario, served vs in-process.
        let matrix = || {
            vec![
                staged_request(23),
                CoDesignRequest::new(
                    mixed_input(1),
                    CoDesignOptions::quick(7)
                        .with_refinement(accel_model::BackendKind::TraceSim, 2),
                )
                .with_label("small"),
                staged_request(23).with_label("dup-of-net-probe"),
            ]
        };

        let engine = Engine::new(EngineConfig::default().with_job_slots(1));
        let expected = engine.campaign(matrix()).unwrap();

        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig::default().with_job_slots(1),
            ServerOptions {
                min_workers: 2,
                ..ServerOptions::default()
            },
        )
        .expect("bind loopback");
        let addr = server.addr().to_string();
        let fleet = [WorkerHandle::spawn(&addr), WorkerHandle::spawn(&addr)];
        let client = Client::connect(&addr).expect("hello handshake");
        let outcomes = client.campaign(matrix()).expect("remote campaign");
        server.shutdown();
        let batches: u64 = fleet.into_iter().map(|w| w.join().unwrap_or(0)).sum();
        assert!(batches > 0, "campaign never dispatched remotely");

        assert_eq!(expected.len(), outcomes.len());
        assert_eq!(
            expected[2].shared_with.as_deref(),
            Some("net-probe"),
            "the duplicate scenario is attributed to its representative"
        );
        for (a, b) in expected.iter().zip(&outcomes) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.shared_with, b.shared_with);
            assert_eq!(a.solution, b.solution);
            assert_eq!(
                a.solution.total.latency_cycles.to_bits(),
                b.solution.total.latency_cycles.to_bits()
            );
        }
    }
}
