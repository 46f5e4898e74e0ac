//! Per-stage observability report for a full performance-table build.
//!
//! Builds the 49-phase x 26-feature-set table through the standard
//! sweep runner (probes go through `results/cache/`, so a warm cache
//! makes this a cache-hit sweep and a cold one the real build), then
//! renders everything the `cisa-obs` layer captured: per-stage span
//! times (probe phases, compile passes), cache hit/miss/store counters,
//! fault and retry counters, simulator stall attribution, and search
//! statistics.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cisa-bench --bin sweep_report          # table
//! cargo run --release -p cisa-bench --bin sweep_report -- --json
//! ```
//!
//! `--json` prints the snapshot as one deterministic JSON object
//! (sorted keys; includes wall-clock "ns" fields — strip them with the
//! library's `to_json(false)` form when diffing across runs).
//!
//! `--serve-smoke` additionally spins the affinity server up over the
//! freshly built table, issues a short loopback request burst, and
//! tears it down before the snapshot is taken — so the report (and the
//! `--json` output) includes the `serve/latency_ns` request-latency
//! histogram and the `serve/*` counters next to the sweep's own
//! metrics.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

use cisa_bench::{obs_report, results_dir};
use cisa_explore::{DesignSpace, PerfTable, ShardedProfileStore, SweepRunner};
use cisa_workloads::all_phases;

/// Requests the `--serve-smoke` burst issues.
const SMOKE_REQUESTS: usize = 200;

/// Serves a short loopback burst so `serve/*` metrics land in the
/// snapshot.
fn serve_smoke(space: DesignSpace, table: &PerfTable) {
    let phases = all_phases();
    let state = Arc::new(cisa_serve::ServerState::from_table(
        space,
        table,
        phases.clone(),
        ShardedProfileStore::new(None),
        cisa_serve::ServeConfig::default(),
    ));
    let server = cisa_serve::Server::start("127.0.0.1:0", state).expect("bind loopback");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut buf = Vec::new();
    for i in 0..SMOKE_REQUESTS {
        let body = format!(
            r#"{{"phase":"{}","top":3}}"#,
            phases[i % phases.len()].name()
        );
        let head = format!(
            "POST /v1/affinity HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\n{}\r\n",
            body.len(),
            if i + 1 == SMOKE_REQUESTS {
                "Connection: close\r\n"
            } else {
                ""
            },
        );
        stream.write_all(head.as_bytes()).expect("write");
        stream.write_all(body.as_bytes()).expect("write");
        if i + 1 == SMOKE_REQUESTS {
            buf.clear();
            stream.read_to_end(&mut buf).expect("drain");
        } else {
            // Keep-alive: read this response's framed body before the
            // next request (closed loop, one request in flight).
            read_one_response(&mut stream);
        }
    }
}

/// Reads one `Content-Length`-framed response off a keep-alive stream.
fn read_one_response(stream: &mut std::net::TcpStream) {
    let mut data = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let (head_end, content_length) = loop {
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed early");
        data.extend_from_slice(&chunk[..n]);
        if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
            let cl = std::str::from_utf8(&data[..pos])
                .ok()
                .and_then(|h| {
                    h.lines().find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(|v| v.trim().to_string())
                    })
                })
                .and_then(|v| v.parse::<usize>().ok())
                .expect("content-length");
            break (pos + 4, cl);
        }
    };
    while data.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "server closed mid-body");
        data.extend_from_slice(&chunk[..n]);
    }
}

/// Runs the static analyzer over a few compiled phases so the
/// `analyze/*` spans and counters (`analyze/cfg`, `analyze/dataflow`,
/// `analyze/dataflow/iters`, `analyze/migration_points`) land in the
/// snapshot next to the sweep's own metrics.
fn analyze_smoke() -> (usize, usize) {
    let fs = cisa_isa::FeatureSet::superset();
    let options = cisa_compiler::CompileOptions::default();
    let mut analyzed = 0usize;
    let mut points = 0usize;
    for spec in all_phases().iter().take(8) {
        let code = cisa_compiler::compile(&cisa_workloads::generate(spec), &fs, &options)
            .expect("phase compiles");
        let image = cisa_analyze::lay_out(&code).expect("layout");
        let analysis = cisa_analyze::analyze(&image.bytes);
        assert!(
            analysis.errors().next().is_none(),
            "clean compile must analyze clean"
        );
        analyzed += 1;
        points += analysis.points.points.len();
    }
    (analyzed, points)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let smoke = std::env::args().any(|a| a == "--serve-smoke");

    cisa_obs::reset();
    let space = DesignSpace::new();
    let runner = SweepRunner::from_env(results_dir().join("cache"));
    let phases = all_phases();

    let started = Instant::now();
    let (table, report) = PerfTable::build(&space, &phases, &runner);
    if smoke {
        serve_smoke(DesignSpace::new(), &table);
    }
    let (analyzed, analyze_points) = analyze_smoke();
    let wall = started.elapsed().as_secs_f64();
    let snap = cisa_obs::snapshot();

    if json {
        println!("{}", snap.to_json(true));
        return;
    }
    println!(
        "sweep_report: {} phases x {} designs in {:.1}s on {} thread(s); {}",
        table.n_phases,
        space.len(),
        wall,
        runner.threads(),
        report.summary()
    );
    // Table-fill stage breakdown: the batched block evaluator emits
    // one `table/fill_block` span per (cell, profile) sweep, nested
    // under the sweep items; sum across nestings.
    let (fill_calls, fill_ns) = snap
        .spans()
        .filter(|(path, _)| path.ends_with("table/fill_block"))
        .fold((0u64, 0u64), |(c, ns), (_, s)| {
            (c + s.count, ns + s.total_ns)
        });
    if fill_calls > 0 {
        println!(
            "table fill: {} block sweeps over {} design evaluations in {:.3}s",
            fill_calls,
            snap.counter("table/block_evals"),
            fill_ns as f64 / 1e9
        );
    }
    println!(
        "static analysis: {} images, {} migration points, {} dataflow iterations",
        analyzed,
        analyze_points,
        snap.counter("analyze/dataflow/iters")
    );
    print!("{}", obs_report::render(&snap, wall));
}
