//! `hasco-serve` — the network serving front-end.
//!
//! Wraps a long-lived engine (shared memo cache, surrogate store) behind
//! a TCP listener so submits, event streams, and campaigns work across
//! processes.
//!
//! ```text
//! hasco-serve --listen 127.0.0.1:4477 --cache /var/lib/hasco/memo.bin --job-slots 2
//! ```

use std::process::ExitCode;
use std::time::Duration;

use hasco::engine::EngineConfig;
use hasco_net::{Server, ServerOptions};

const USAGE: &str = "\
hasco-serve: HASCO network serving front-end

USAGE:
    hasco-serve [OPTIONS]

OPTIONS:
    --listen ADDR           Bind address (default 127.0.0.1:4477)
    --job-slots N           Concurrent job slots (default 1)
    --cache PATH            Persistent memo-cache image
    --cache-max-age SECS    Age GC for the persisted image
    --surrogate-store PATH  Persistent surrogate-registry image
    --help                  Show this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("hasco-serve: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut listen = "127.0.0.1:4477".to_string();
    let mut config = EngineConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--listen" => match value("--listen") {
                Ok(v) => listen = v,
                Err(e) => return fail(&e),
            },
            "--job-slots" => match value("--job-slots").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) if n > 0 => config = config.with_job_slots(n),
                _ => return fail("--job-slots needs a positive integer"),
            },
            "--cache" => match value("--cache") {
                Ok(v) => config = config.with_cache_path(v),
                Err(e) => return fail(&e),
            },
            "--cache-max-age" => match value("--cache-max-age").map(|v| v.parse::<u64>()) {
                Ok(Ok(secs)) => config = config.with_cache_max_age(Duration::from_secs(secs)),
                _ => return fail("--cache-max-age needs seconds"),
            },
            "--surrogate-store" => match value("--surrogate-store") {
                Ok(v) => config = config.with_surrogate_store(v),
                Err(e) => return fail(&e),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown flag {other}")),
        }
    }

    let server = match Server::bind(&listen, config, ServerOptions::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("hasco-serve: bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The smoke scripts wait for this exact line before starting work.
    println!("hasco-serve: listening on {}", server.addr());

    // Serve until a client sends Shutdown, then exit cleanly (the
    // shutdown path already drained handlers and persisted warm state).
    server.wait_for_shutdown();
    println!("hasco-serve: drained, exiting");
    ExitCode::SUCCESS
}
