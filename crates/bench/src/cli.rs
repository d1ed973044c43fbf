//! Shared command-line handling for the figure/table binaries.
//!
//! Every binary accepts:
//!
//! * `--quick` / `--paper` — experiment scale (default `--paper`);
//! * `--threads N` — evaluation worker threads (`0` = all cores;
//!   default `1`, the fully serial reference). Thread count changes
//!   wall-clock time only, never results;
//! * `--backend B` — cost backend tier (`analytic` | `sim` |
//!   `calibrated` | `surrogate`, default `analytic`);
//! * `--refine-top-k K` — fidelity staging: re-evaluate the `K`
//!   best-screened candidates of every DSE batch with the trace-sim tier
//!   (default 0 = off; `auto` enables the adaptive controller);
//! * `--adaptive` — adaptive fidelity staging: the refine budget grows
//!   and shrinks per batch from the screen-vs-refine rank disagreement;
//! * `--tech-sweep` — run the hardware-DSE experiments across the named
//!   `TechParams` profiles as an extra scenario axis (fig10, table3);
//! * `--cache FILE` — persist the evaluation cache at `FILE` so repeated
//!   runs start warm (shared files merge newest-wins across runs);
//! * `--cache-max-age SECS` — age-based GC for the shared cache file:
//!   entries no run refreshed within `SECS` seconds are dropped at save
//!   time, so long-lived files stop growing without bound;
//! * `--surrogate-store FILE` — persist the engine's trained surrogate
//!   registry at `FILE`, so a repeat invocation prices with the previous
//!   run's surrogate generation instead of re-paying the training
//!   (pair with `--cache` for fully warm restarts);
//! * `--metrics-out FILE` — write the run's telemetry snapshot (named
//!   timing histograms, counters, gauges, per-shard cache stats) as
//!   versioned JSON (`hasco-telemetry-v2`) at `FILE`;
//! * `--connect ADDR` — run campaigns against the `hasco-serve`
//!   front-end at `ADDR` instead of an in-process engine (results are
//!   bit-identical; the warm state lives server-side);
//! * `--serve ADDR` — don't run the experiment: serve a network engine
//!   built from this binary's persistence flags at `ADDR` until a client
//!   sends shutdown (`--workers-remote N` holds jobs until `N` remote
//!   workers registered);
//! * `--help` — usage.
//!
//! `HASCO_THREADS` is honored when `--threads` is absent, so
//! `cargo bench` runs can be parallelized without changing argv.

use accel_model::BackendKind;

use crate::{common, Scale};

/// Parsed options for one bench binary.
#[derive(Debug, Clone, Copy)]
pub struct BenchCli {
    /// Experiment scale.
    pub scale: Scale,
    /// Worker threads (already applied via [`common::set_threads`]).
    pub threads: usize,
    /// Cost backend (already applied via [`common::set_backend`]).
    pub backend: BackendKind,
    /// Fidelity-staging survivors (already applied via
    /// [`common::set_refine_top_k`]).
    pub refine_top_k: usize,
    /// Adaptive fidelity staging (already applied via
    /// [`common::set_adaptive`]).
    pub adaptive: bool,
    /// Technology-profile sweep (already applied via
    /// [`common::set_tech_sweep`]).
    pub tech_sweep: bool,
}

fn usage(bin: &str, artifact: &str) -> String {
    format!(
        "Regenerates the paper's {artifact}.\n\n\
         USAGE: {bin} [--quick | --paper] [--threads N] [--backend B] [--refine-top-k K|auto]\n\
         \x20      [--adaptive] [--tech-sweep] [--cache FILE] [--cache-max-age SECS]\n\
         \x20      [--surrogate-store FILE] [--metrics-out FILE]\n\n\
         OPTIONS:\n\
         \x20   --quick           reduced budgets/workload subsets (CI-sized)\n\
         \x20   --paper           paper-sized trial budgets (default)\n\
         \x20   --threads N       evaluation worker threads (0 = all cores, default 1);\n\
         \x20                     results are identical at any thread count\n\
         \x20   --backend B       cost backend: analytic | sim | calibrated | surrogate\n\
         \x20                     (default analytic; surrogate = analytic + a GP trained\n\
         \x20                     online from the refine tier)\n\
         \x20   --refine-top-k K  re-evaluate the K best-screened DSE candidates per batch\n\
         \x20                     with the trace-sim tier (default 0 = staging off; `auto`\n\
         \x20                     enables the adaptive controller; applies to the\n\
         \x20                     hardware-DSE binaries: fig10, table2, table3)\n\
         \x20   --adaptive        grow/shrink the refine budget per batch from the observed\n\
         \x20                     screen-vs-refine rank disagreement (implies staging)\n\
         \x20   --tech-sweep      sweep the named TechParams profiles as a scenario axis\n\
         \x20                     (fig10, table3)\n\
         \x20   --cache FILE      persist the hardware-DSE evaluation cache at FILE so\n\
         \x20                     repeat runs start warm; shared files merge newest-wins\n\
         \x20                     (fig10, table2, table3)\n\
         \x20   --cache-max-age SECS  drop cache entries older than SECS seconds when\n\
         \x20                     saving, so long-lived shared files are GC'd\n\
         \x20   --surrogate-store FILE  persist the trained surrogate registry at FILE so\n\
         \x20                     repeat runs start at the previous surrogate generation\n\
         \x20                     (campaign binaries: fig10, table3)\n\
         \x20   --metrics-out FILE  write the telemetry snapshot (timing histograms,\n\
         \x20                     counters, gauges, cache shards) as JSON at FILE\n\
         \x20   --connect ADDR    run campaigns against the hasco-serve front-end at ADDR\n\
         \x20                     (bit-identical results; warm state lives server-side)\n\
         \x20   --serve ADDR      serve a network engine at ADDR instead of running the\n\
         \x20                     experiment (exits when a client sends shutdown)\n\
         \x20   --workers-remote N  with --serve: hold jobs until N remote workers have\n\
         \x20                     registered (throughput gate only — never changes results)\n\
         \x20   --help            this message"
    )
}

fn bail(bin: &str, artifact: &str, msg: &str) -> ! {
    eprintln!("{msg}\n\n{}", usage(bin, artifact));
    std::process::exit(2);
}

/// Parses argv for a bench binary (exiting on `--help` or bad input) and
/// installs the runtime configuration for the experiment harnesses.
pub fn parse(bin: &str, artifact: &str) -> BenchCli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut threads: Option<usize> = None;
    let mut backend = BackendKind::Analytic;
    let mut refine_top_k = 0usize;
    let mut adaptive = false;
    let mut tech_sweep = false;
    let mut serve: Option<String> = None;
    let mut workers_remote = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--paper" => scale = Scale::Paper,
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => threads = Some(n),
                None => bail(bin, artifact, "--threads expects a number"),
            },
            "--backend" => match it.next().map(|v| v.parse::<BackendKind>()) {
                Some(Ok(kind)) => backend = kind,
                Some(Err(e)) => bail(bin, artifact, &e),
                None => bail(
                    bin,
                    artifact,
                    "--backend expects analytic | sim | calibrated | surrogate",
                ),
            },
            "--refine-top-k" => match it.next() {
                Some(v) if v == "auto" => adaptive = true,
                Some(v) => match v.parse::<usize>() {
                    Ok(k) => refine_top_k = k,
                    Err(_) => bail(bin, artifact, "--refine-top-k expects a number or `auto`"),
                },
                None => bail(bin, artifact, "--refine-top-k expects a number or `auto`"),
            },
            "--adaptive" => adaptive = true,
            "--tech-sweep" => tech_sweep = true,
            "--cache" => match it.next() {
                Some(path) => common::set_cache_path(path.into()),
                None => bail(bin, artifact, "--cache expects a file path"),
            },
            "--cache-max-age" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(secs) => common::set_cache_max_age(std::time::Duration::from_secs(secs)),
                None => bail(bin, artifact, "--cache-max-age expects seconds"),
            },
            "--surrogate-store" => match it.next() {
                Some(path) => common::set_surrogate_store(path.into()),
                None => bail(bin, artifact, "--surrogate-store expects a file path"),
            },
            "--metrics-out" => match it.next() {
                Some(path) => common::set_metrics_out(path.into()),
                None => bail(bin, artifact, "--metrics-out expects a file path"),
            },
            "--connect" => match it.next() {
                Some(addr) => common::set_connect(addr.clone()),
                None => bail(bin, artifact, "--connect expects HOST:PORT"),
            },
            "--serve" => match it.next() {
                Some(addr) => serve = Some(addr.clone()),
                None => bail(bin, artifact, "--serve expects HOST:PORT"),
            },
            "--workers-remote" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => workers_remote = n,
                None => bail(bin, artifact, "--workers-remote expects a number"),
            },
            "--help" | "-h" => {
                println!("{}", usage(bin, artifact));
                std::process::exit(0);
            }
            other => bail(bin, artifact, &format!("unknown option `{other}`")),
        }
    }
    let threads = threads
        .or_else(|| {
            std::env::var("HASCO_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1);
    // Adaptive staging needs a nonzero starting budget even when only
    // `--adaptive` / `--refine-top-k auto` was given.
    if adaptive && refine_top_k == 0 {
        refine_top_k = 4;
    }
    // Catch degenerate staging at the CLI, with the same rules
    // `CoDesignOptions::validate` enforces at submit: refining with the
    // tier that already screened is a no-op that costs sim time.
    if refine_top_k > 0 && backend == BackendKind::TraceSim {
        bail(
            bin,
            artifact,
            "--refine-top-k with --backend sim is degenerate: the refine tier (sim) \
             would re-price what the screen tier (sim) already priced; screen with a \
             cheaper backend or drop --refine-top-k",
        );
    }
    common::set_threads(threads);
    common::set_backend(backend);
    common::set_refine_top_k(refine_top_k);
    common::set_adaptive(adaptive);
    common::set_tech_sweep(tech_sweep);
    if workers_remote > 0 && serve.is_none() {
        bail(
            bin,
            artifact,
            "--workers-remote only makes sense with --serve",
        );
    }
    if let Some(addr) = serve {
        if common::connect_addr().is_some() {
            bail(
                bin,
                artifact,
                "--serve and --connect are mutually exclusive",
            );
        }
        // Serve mode: this process becomes the network front-end for its
        // persistence flags and never runs the experiment itself.
        let opts = hasco_net::ServerOptions {
            min_workers: workers_remote,
            ..hasco_net::ServerOptions::default()
        };
        match hasco_net::Server::bind(&addr, common::engine_config(), opts) {
            Ok(server) => {
                println!("hasco-serve: listening on {}", server.addr());
                server.wait_for_shutdown();
                println!("hasco-serve: drained, exiting");
                std::process::exit(0);
            }
            Err(e) => bail(bin, artifact, &format!("--serve {addr}: bind failed: {e}")),
        }
    }
    BenchCli {
        scale,
        threads,
        backend,
        refine_top_k,
        adaptive,
        tech_sweep,
    }
}

/// Runs one experiment end to end: parse argv, run, render, report timing.
pub fn drive<T>(
    bin: &str,
    artifact: &str,
    run: impl FnOnce(Scale) -> T,
    render: impl FnOnce(&T) -> String,
) {
    let cli = parse(bin, artifact);
    // Clock audit: the whole-run timing is a telemetry span like any
    // other — the bracketed footer line and the `--metrics-out` snapshot
    // report the same clock, and neither can reach results. `result`
    // (the artifact table) is produced by `run` before `elapsed` is even
    // read, and the snapshot is written to a separate side-channel file,
    // so wall-clock time never enters the regenerated artifact.
    let span = common::telemetry().span("bench");
    let result = run(cli.scale);
    let elapsed = span.finish();
    println!("{}", render(&result));
    println!(
        "[{artifact} regenerated in {:.1}s at {:?} scale, {} worker thread(s), {} backend{}{}]",
        elapsed.as_secs_f64(),
        cli.scale,
        runtime::resolve_threads(cli.threads),
        cli.backend,
        match (cli.adaptive, cli.refine_top_k) {
            (true, k) => format!(", adaptive refine from top-{k}"),
            (false, 0) => String::new(),
            (false, k) => format!(", refine top-{k}"),
        },
        if cli.tech_sweep { ", tech sweep" } else { "" },
    );
    if let Some(snapshot) = common::telemetry().snapshot() {
        println!("{}", snapshot.render());
        if let Some(path) = common::metrics_out() {
            match std::fs::write(&path, snapshot.to_json()) {
                Ok(()) => println!("[telemetry snapshot written to {}]", path.display()),
                Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
            }
        }
    }
}
