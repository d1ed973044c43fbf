//! Shared command-line handling for the figure/table binaries.
//!
//! Every binary accepts:
//!
//! * `--quick` / `--paper` — experiment scale (default `--paper`);
//! * `--threads N` — evaluation worker threads per job (`0` = all cores;
//!   default `1`). The co-design binaries (fig10, table2, table3) run
//!   two jobs at once, so `--threads 1` there means one thread per job.
//!   Thread count changes wall-clock time only, never results;
//! * `--backend B` — cost backend tier (`analytic` | `sim` |
//!   `surrogate`, default `analytic`);
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
//! * `--connect ADDR` — run the co-design jobs on the `hasco-serve`
//!   front-end at `ADDR` instead of an in-process engine (results are
//!   bit-identical; the warm state lives server-side);
//! * `--help` — usage.
//!
//! `--cache`, `--surrogate-store` and `--connect` apply to the binaries
//! that run co-design jobs: fig10, table2 and table3. To serve an engine
//! over the network, run `hasco-serve`.

use accel_model::BackendKind;

use crate::common::Config;
use crate::Scale;

fn usage(bin: &str, artifact: &str) -> String {
    format!(
        "Regenerates the paper's {artifact}.\n\n\
         USAGE: {bin} [--quick | --paper] [--threads N] [--backend B] [--refine-top-k K|auto]\n\
         \x20      [--adaptive] [--tech-sweep] [--cache FILE] [--cache-max-age SECS]\n\
         \x20      [--surrogate-store FILE] [--metrics-out FILE] [--connect ADDR]\n\n\
         OPTIONS:\n\
         \x20   --quick           reduced budgets/workload subsets (CI-sized)\n\
         \x20   --paper           paper-sized trial budgets (default)\n\
         \x20   --threads N       evaluation worker threads per job (0 = all cores,\n\
         \x20                     default 1; fig10, table2 and table3 run 2 jobs at\n\
         \x20                     once); results are identical at any thread count\n\
         \x20   --backend B       cost backend: analytic | sim | surrogate\n\
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
         \x20                     (fig10, table2, table3)\n\
         \x20   --metrics-out FILE  write the telemetry snapshot (timing histograms,\n\
         \x20                     counters, gauges, cache shards) as JSON at FILE\n\
         \x20   --connect ADDR    run the co-design jobs on the hasco-serve front-end at\n\
         \x20                     ADDR (bit-identical results; warm state lives\n\
         \x20                     server-side; fig10, table2, table3)\n\
         \x20   --help            this message"
    )
}

fn bail(bin: &str, artifact: &str, msg: &str) -> ! {
    eprintln!("{msg}\n\n{}", usage(bin, artifact));
    std::process::exit(2);
}

/// Parses argv for a bench binary (exiting on `--help` or bad input) into
/// the run's [`Config`].
pub fn parse(bin: &str, artifact: &str) -> Config {
    let mut cfg = Config::at(Scale::Paper);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cfg.scale = Scale::Quick,
            "--paper" => cfg.scale = Scale::Paper,
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => cfg.threads = n,
                None => bail(bin, artifact, "--threads expects a number"),
            },
            "--backend" => match it.next().map(|v| v.parse::<BackendKind>()) {
                Some(Ok(kind)) => cfg.backend = kind,
                Some(Err(e)) => bail(bin, artifact, &e),
                None => bail(
                    bin,
                    artifact,
                    "--backend expects analytic | sim | surrogate",
                ),
            },
            "--refine-top-k" => match it.next() {
                Some(v) if v == "auto" => cfg.adaptive = true,
                Some(v) => match v.parse::<usize>() {
                    Ok(k) => cfg.refine_top_k = k,
                    Err(_) => bail(bin, artifact, "--refine-top-k expects a number or `auto`"),
                },
                None => bail(bin, artifact, "--refine-top-k expects a number or `auto`"),
            },
            "--adaptive" => cfg.adaptive = true,
            "--tech-sweep" => cfg.tech_sweep = true,
            "--cache" => match it.next() {
                Some(path) => cfg.cache = Some(path.into()),
                None => bail(bin, artifact, "--cache expects a file path"),
            },
            "--cache-max-age" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(secs) => cfg.cache_max_age = Some(std::time::Duration::from_secs(secs)),
                None => bail(bin, artifact, "--cache-max-age expects seconds"),
            },
            "--surrogate-store" => match it.next() {
                Some(path) => cfg.surrogate_store = Some(path.into()),
                None => bail(bin, artifact, "--surrogate-store expects a file path"),
            },
            "--metrics-out" => match it.next() {
                Some(path) => cfg.metrics_out = Some(path.into()),
                None => bail(bin, artifact, "--metrics-out expects a file path"),
            },
            "--connect" => match it.next() {
                Some(addr) => cfg.connect = Some(addr.clone()),
                None => bail(bin, artifact, "--connect expects HOST:PORT"),
            },
            "--help" | "-h" => {
                println!("{}", usage(bin, artifact));
                std::process::exit(0);
            }
            other => bail(bin, artifact, &format!("unknown option `{other}`")),
        }
    }
    // Adaptive staging needs a nonzero starting budget even when only
    // `--adaptive` / `--refine-top-k auto` was given.
    if cfg.adaptive && cfg.refine_top_k == 0 {
        cfg.refine_top_k = 4;
    }
    // Catch degenerate staging at the CLI, with the same rules
    // `CoDesignOptions::validate` enforces at submit: refining with the
    // tier that already screened is a no-op that costs sim time.
    if cfg.refine_top_k > 0 && cfg.backend == BackendKind::TraceSim {
        bail(
            bin,
            artifact,
            "--refine-top-k with --backend sim is degenerate: the refine tier (sim) \
             would re-price what the screen tier (sim) already priced; screen with a \
             cheaper backend or drop --refine-top-k",
        );
    }
    cfg
}

/// Runs one experiment end to end: parse argv, run, render, report timing.
pub fn drive<T>(
    bin: &str,
    artifact: &str,
    run: impl FnOnce(&Config) -> T,
    render: impl FnOnce(&T) -> String,
) {
    let cfg = parse(bin, artifact);
    // Clock audit: the whole-run timing is a telemetry span like any
    // other — the bracketed footer line and the `--metrics-out` snapshot
    // report the same clock, and neither can reach results. `result`
    // (the artifact table) is produced by `run` before `elapsed` is even
    // read, and the snapshot is written to a separate side-channel file,
    // so wall-clock time never enters the regenerated artifact.
    let span = cfg.telemetry.span("bench");
    let result = run(&cfg);
    let elapsed = span.finish();
    println!("{}", render(&result));
    println!(
        "[{artifact} regenerated in {:.1}s at {:?} scale, {} worker thread(s), {} backend{}{}]",
        elapsed.as_secs_f64(),
        cfg.scale,
        runtime::resolve_threads(cfg.threads),
        cfg.backend,
        match (cfg.adaptive, cfg.refine_top_k) {
            (true, k) => format!(", adaptive refine from top-{k}"),
            (false, 0) => String::new(),
            (false, k) => format!(", refine top-{k}"),
        },
        if cfg.tech_sweep { ", tech sweep" } else { "" },
    );
    if let Some(snapshot) = cfg.telemetry.snapshot() {
        println!("{}", snapshot.render());
        if let Some(path) = &cfg.metrics_out {
            match std::fs::write(path, snapshot.to_json()) {
                Ok(()) => println!("[telemetry snapshot written to {}]", path.display()),
                Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
            }
        }
    }
}
