//! The affinity service binary.
//!
//! Loads (or builds) the batch performance table, pins every known
//! phase, and serves affinity queries until killed:
//!
//! ```text
//! cargo run --release -p cisa-serve --bin serve -- --addr 127.0.0.1:8780
//! ```
//!
//! Flags: `--addr HOST:PORT` (default `127.0.0.1:8780`), `--workers N`
//! (HTTP workers), `--refines N` (concurrent refinement sweeps),
//! `--deadline-ms MS` (default request deadline), `--queue N`
//! (admission queue capacity; connections beyond it are shed with a
//! 429). The table and probe cache live in `results/` at the workspace
//! root (override with `CISA_RESULTS`). At startup the probe cache is
//! scanned for crash debris from a previous run (orphan temp files,
//! torn entries) and cleaned before serving.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cisa_explore::{DesignSpace, PerfTable, ProfileCache, ShardedProfileStore, SweepRunner};
use cisa_serve::{ServeConfig, Server, ServerState};

/// Where the cached table and probe cache live: `CISA_RESULTS`, or
/// `results/` at the workspace root.
fn results_dir() -> PathBuf {
    if let Some(p) = std::env::var_os("CISA_RESULTS") {
        return PathBuf::from(p);
    }
    let mut p = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    // crates/serve -> workspace root
    p.pop();
    p.pop();
    p.join("results")
}

fn parse_args() -> Result<(String, ServeConfig), String> {
    let mut addr = "127.0.0.1:8780".to_string();
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--refines" => {
                config.max_concurrent_refines = value("--refines")?
                    .parse()
                    .map_err(|e| format!("--refines: {e}"))?;
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                config.default_deadline = Duration::from_millis(ms);
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((addr, config))
}

fn main() {
    let (addr, config) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    };

    let results = results_dir();
    let space = DesignSpace::new();
    let phases = cisa_workloads::all_phases();
    let runner = SweepRunner::from_env(results.join("cache"));
    let started = std::time::Instant::now();
    let (table, report) =
        PerfTable::load_or_build(&space, &results.join("perf_table.bin"), &runner);
    if let Some(report) = report.filter(|r| !r.is_clean()) {
        eprintln!("serve: table build faults: {}", report.summary());
    }
    eprintln!(
        "serve: table ready ({} phases x {} designs) in {:.1}s",
        table.n_phases,
        space.len(),
        started.elapsed().as_secs_f64()
    );

    let store = ShardedProfileStore::new(Some(ProfileCache::new(results.join("cache"))));
    // A previous process may have been killed mid-publish; clean up
    // its debris before taking traffic.
    let recovery = store.recover();
    if !recovery.is_clean() {
        eprintln!(
            "serve: store recovery: removed {} temp file(s), {} torn entr(y/ies); {} valid",
            recovery.tmp_removed, recovery.torn_removed, recovery.entries_valid
        );
    }
    let state = Arc::new(ServerState::from_table(
        space, &table, phases, store, config,
    ));
    match Server::start(&addr, state) {
        Ok(server) => {
            eprintln!("serve: listening on http://{}", server.addr());
            // Serve until killed; the acceptor thread owns the socket.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    }
}
