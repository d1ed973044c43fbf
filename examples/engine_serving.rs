//! Serving co-design as a resident service: one `hasco::Engine`, many
//! concurrent requests, streamed progress, warm repeat traffic, and a
//! campaign fan-out — the shape of a production deployment, where the
//! worker pool, the evaluation cache, and surrogate training amortize
//! across every request instead of being rebuilt per call.
//!
//! ```sh
//! cargo run --release --example engine_serving
//! ```

use hasco::codesign::CoDesignOptions;
use hasco::engine::{CoDesignRequest, Engine, EngineConfig};
use hasco::event::RunEvent;
use hasco::input::{Constraints, GenerationMethod, InputDescription};
use runtime::{CacheStats, Telemetry};
use tensor_ir::suites;
use tensor_ir::workload::TensorApp;

fn edge_input() -> InputDescription {
    InputDescription {
        app: TensorApp::new(
            "edge-cnn",
            vec![
                suites::conv2d_workload("c1", 64, 64, 28, 28, 3, 3),
                suites::gemm_workload("fc", 256, 256, 128),
            ],
        ),
        method: GenerationMethod::Gemmini,
        constraints: Constraints {
            max_power_mw: Some(2_000.0),
            ..Constraints::default()
        },
    }
}

fn cloud_input() -> InputDescription {
    let mut input = edge_input();
    input.app = TensorApp::new("cloud-cnn", input.app.workloads);
    input.constraints = Constraints {
        max_power_mw: Some(20_000.0),
        ..Constraints::default()
    };
    input
}

/// The shared memo store's lookups so far: a miss is a software
/// exploration run, a hit one answered from the store.
fn store_traffic(engine: &Engine) -> CacheStats {
    let snapshot = engine.metrics().expect("metrics are on");
    let store = snapshot.caches.iter().find(|c| c.scope == "store");
    store.expect("the engine reports its store").total()
}

fn main() {
    // A resident engine: two concurrent job slots sharing one memo store,
    // with telemetry on so the store's traffic can be read.
    let engine = Engine::new(
        EngineConfig::default()
            .with_job_slots(2)
            .with_metrics(Telemetry::enabled()),
    );

    // --- Concurrent submissions with live progress ---------------------
    // Submit two requests back to back; both run at once. Each handle
    // streams typed events; a background thread tails one stream while
    // the main thread tails the other.
    println!("== two concurrent jobs ==");
    let edge_job = engine
        .submit(CoDesignRequest::new(
            edge_input(),
            CoDesignOptions::quick(7),
        ))
        .expect("valid request");
    let cloud_job = engine
        .submit(CoDesignRequest::new(
            cloud_input(),
            CoDesignOptions::quick(7),
        ))
        .expect("valid request");

    let edge_events = edge_job.events();
    let tail = std::thread::spawn(move || {
        let mut batches = 0;
        for event in edge_events {
            if matches!(event, RunEvent::BatchEvaluated { .. }) {
                batches += 1;
            }
        }
        batches
    });
    let mut cloud_batches = 0;
    for event in cloud_job.events() {
        match event {
            RunEvent::BatchEvaluated { .. } => cloud_batches += 1,
            RunEvent::Solved {
                meets_constraints, ..
            } => println!(
                "cloud job solved (constraints {})",
                if meets_constraints { "met" } else { "violated" }
            ),
            _ => {}
        }
    }
    let edge_batches = tail.join().expect("event tailer");

    let edge = edge_job.wait().expect("edge job succeeds");
    let cloud = cloud_job.wait().expect("cloud job succeeds");
    println!("edge:  {} ({} DSE batches)", edge.accelerator, edge_batches);
    println!(
        "cloud: {} ({} DSE batches)",
        cloud.accelerator, cloud_batches
    );
    // The two jobs price the same pairs (they differ only in
    // constraints), so whichever reaches a pair second reads it from the
    // store.
    let cold = store_traffic(&engine);
    println!(
        "store: {} explorations run, {} answered from the store",
        cold.misses, cold.hits
    );

    // --- Warm repeat traffic -------------------------------------------
    // Both jobs wrote their evaluations into the shared store as they
    // ran, so a repeat of the edge request starts warm: same solution,
    // a fraction of the work.
    println!("\n== warm repeat ==");
    let repeat = engine
        .submit(CoDesignRequest::new(
            edge_input(),
            CoDesignOptions::quick(7),
        ))
        .expect("valid request")
        .wait()
        .expect("repeat succeeds");
    assert_eq!(repeat, edge);
    let warm = store_traffic(&engine);
    println!(
        "repeat: {} explorations run, {} answered from the store, identical solution",
        warm.misses - cold.misses,
        warm.hits - cold.hits
    );

    // --- Campaign fan-out ----------------------------------------------
    // A scenario matrix (here: two power envelopes x two seeds) runs as
    // one campaign: identical scenarios deduplicate, and every scenario
    // reuses what the others already priced.
    println!("\n== campaign ==");
    let mut matrix = Vec::new();
    for (scenario, input) in [("edge", edge_input()), ("cloud", cloud_input())] {
        for seed in [7, 11] {
            matrix.push(
                CoDesignRequest::new(input.clone(), CoDesignOptions::quick(seed))
                    .with_label(format!("{scenario}/seed{seed}")),
            );
        }
    }
    // An exact repeat of an earlier scenario: the campaign detects it and
    // reuses the representative's solution without running a job.
    matrix.push(
        CoDesignRequest::new(edge_input(), CoDesignOptions::quick(7)).with_label("edge/retry"),
    );
    let outcomes = engine.campaign(matrix).expect("campaign succeeds");
    for outcome in &outcomes {
        println!(
            "{:>12}: {}{}",
            outcome.label,
            outcome.solution.accelerator,
            match &outcome.shared_with {
                Some(with) => format!(" (deduplicated with {with})"),
                None => String::new(),
            },
        );
    }
    println!(
        "\nengine executed {} jobs total; store holds {} entries",
        engine.jobs_executed(),
        engine.warm_entries()
    );

    // --- Network serving ------------------------------------------------
    // The same engine shape behind a TCP front-end: `hasco-serve` wraps a
    // resident engine, worker processes register to absorb the expensive
    // trace-sim batches, and a thin client submits jobs from another
    // process. Here everything runs over loopback in one process, but the
    // wire is the real one — and the solution is bit-identical to running
    // the request in-process, because sharding only moves pure functions.
    println!("\n== network serving ==");
    let staged = || {
        CoDesignRequest::new(
            edge_input(),
            CoDesignOptions::quick(7).with_refinement(accel_model::BackendKind::TraceSim, 2),
        )
    };

    // Reference leg: a fresh local engine, no network anywhere.
    let local = Engine::new(EngineConfig::default())
        .submit(staged())
        .expect("valid request")
        .wait()
        .expect("local leg succeeds");

    // Served leg: front-end + one remote worker + client, all loopback.
    let server = hasco_net::Server::bind(
        "127.0.0.1:0",
        EngineConfig::default(),
        hasco_net::ServerOptions {
            min_workers: 1,
            ..hasco_net::ServerOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let worker = hasco_net::WorkerHandle::spawn(&addr);
    let client = hasco_net::Client::connect(&addr).expect("reach server");

    let job = client.submit(staged()).expect("server accepts");
    let mut served_batches = 0;
    for event in job.events() {
        if matches!(event, RunEvent::BatchEvaluated { .. }) {
            served_batches += 1;
        }
    }
    let served = job.wait().expect("served leg succeeds");
    server.shutdown();
    let worker_batches = worker.join().expect("worker exits cleanly");

    assert_eq!(served.accelerator, local.accelerator);
    assert_eq!(
        served.total.latency_ms.to_bits(),
        local.total.latency_ms.to_bits(),
        "remote dispatch must be bit-identical to in-process evaluation"
    );
    assert!(worker_batches > 0, "the worker should have served batches");
    println!(
        "served: {} ({} DSE batches streamed, {} evaluation shards on the worker) \
         — bit-identical to the in-process run",
        served.accelerator, served_batches, worker_batches
    );
}
