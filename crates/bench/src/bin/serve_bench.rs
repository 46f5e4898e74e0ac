//! Closed-loop load generator for the affinity service.
//!
//! Starts an in-process server over a table of the first
//! `--phases N` phases (default 8), then drives it with `--clients C`
//! (default 8) closed-loop keep-alive clients for `--requests N`
//! (default 20,000) total warm requests, mixing `POST /v1/affinity`
//! (known phases) with `GET /v1/designs` and `GET /healthz` in a
//! 8:1:1 ratio. Reports cold-start latency (first request, empty OS
//! caches for the connection), warm p50/p90/p99, and sustained
//! throughput, and writes `BENCH_serve.json`.
//!
//! With `--check <baseline.json>` the run fails (exit 1) if warm
//! throughput drops below `1000 req/s` or below 50% of the committed
//! baseline — a ratio-free absolute floor plus a machine-relative
//! gate, mirroring `bench_probe`.
//!
//! Usage: `serve_bench [--out <path>] [--check <baseline.json>]
//! [--requests N] [--clients C] [--phases P]`

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cisa_bench::results_dir;
use cisa_explore::{DesignSpace, PerfTable, ShardedProfileStore, SweepRunner};
use cisa_serve::{ServeConfig, Server, ServerState};
use cisa_workloads::PhaseSpec;

/// Warm throughput floor (req/s) the gate enforces unconditionally.
const MIN_WARM_RPS: f64 = 1000.0;
/// Fraction of the baseline throughput the measured run must retain.
const GATE_RETENTION: f64 = 0.5;

struct Args {
    out: PathBuf,
    check: Option<PathBuf>,
    requests: usize,
    clients: usize,
    phases: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: results_dir().join("BENCH_serve.json"),
        check: None,
        requests: 20_000,
        clients: 8,
        phases: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--out" => args.out = PathBuf::from(value("--out")),
            "--check" => args.check = Some(PathBuf::from(value("--check"))),
            "--requests" => args.requests = value("--requests").parse().expect("--requests"),
            "--clients" => args.clients = value("--clients").parse().expect("--clients"),
            "--phases" => args.phases = value("--phases").parse().expect("--phases"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One keep-alive connection issuing requests and timing each.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to bench server");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            stream,
            buf: vec![0u8; 64 * 1024],
        }
    }

    /// Issues one request, returns (latency_ns, status).
    fn roundtrip(&mut self, method: &str, target: &str, body: &str) -> (u64, u16) {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let t = Instant::now();
        self.stream.write_all(head.as_bytes()).expect("write head");
        self.stream.write_all(body.as_bytes()).expect("write body");
        // Read one full response: head, then Content-Length body bytes.
        let mut data = Vec::with_capacity(4096);
        let (head_end, content_length) = loop {
            let n = self.stream.read(&mut self.buf).expect("read response");
            assert!(n > 0, "server closed mid-response");
            data.extend_from_slice(&self.buf[..n]);
            if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&data[..pos]).expect("UTF-8 head");
                let cl = head
                    .lines()
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(str::trim)
                            .map(String::from)
                    })
                    .and_then(|v| v.parse::<usize>().ok())
                    .expect("content-length");
                break (pos + 4, cl);
            }
        };
        while data.len() < head_end + content_length {
            let n = self.stream.read(&mut self.buf).expect("read body");
            assert!(n > 0, "server closed mid-body");
            data.extend_from_slice(&self.buf[..n]);
        }
        let latency = t.elapsed().as_nanos() as u64;
        let status: u16 = std::str::from_utf8(&data[..head_end])
            .ok()
            .and_then(|h| h.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        (latency, status)
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = parse_args();
    let space = DesignSpace::new();
    let phases: Vec<PhaseSpec> = cisa_workloads::all_phases()
        .into_iter()
        .take(args.phases)
        .collect();
    println!(
        "serve_bench: building table for {} phases x {} designs",
        phases.len(),
        space.len()
    );
    let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
    let state = Arc::new(ServerState::from_table(
        DesignSpace::new(),
        &table,
        phases.clone(),
        ShardedProfileStore::new(None),
        ServeConfig::default(),
    ));
    let server = Server::start("127.0.0.1:0", state).expect("bind loopback");
    let addr = server.addr();

    // Cold latency: the very first request the server ever sees.
    let mut cold_client = Client::connect(addr);
    let body0 = format!(r#"{{"phase":"{}"}}"#, phases[0].name());
    let (cold_ns, status) = cold_client.roundtrip("POST", "/v1/affinity", &body0);
    assert_eq!(status, 200, "cold request must succeed");
    drop(cold_client);

    // Warmup: touch every phase once per client-to-be.
    {
        let mut c = Client::connect(addr);
        for spec in &phases {
            let body = format!(r#"{{"phase":"{}"}}"#, spec.name());
            let (_, status) = c.roundtrip("POST", "/v1/affinity", &body);
            assert_eq!(status, 200);
        }
    }

    // Closed-loop measurement: `clients` threads, keep-alive, each
    // issuing its share of the request mix.
    let per_client = args.requests / args.clients;
    let bodies: Vec<String> = phases
        .iter()
        .map(|s| format!(r#"{{"phase":"{}","top":5}}"#, s.name()))
        .collect();
    let started = Instant::now();
    let mut all_lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|ci| {
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut lat = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        // 8:1:1 mix of affinity : designs : healthz.
                        let (ns, status) = match i % 10 {
                            8 => c.roundtrip("GET", "/v1/designs?sem=ooo&limit=20", ""),
                            9 => c.roundtrip("GET", "/healthz", ""),
                            _ => {
                                let b = &bodies[(ci + i) % bodies.len()];
                                c.roundtrip("POST", "/v1/affinity", b)
                            }
                        };
                        assert_eq!(status, 200, "warm request {i} on client {ci}");
                        lat.push(ns);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let total: usize = all_lat.iter().map(Vec::len).sum();
    let throughput = total as f64 / wall_s;

    let mut lat: Vec<u64> = all_lat.drain(..).flatten().collect();
    lat.sort_unstable();
    let p50 = percentile(&lat, 0.50);
    let p90 = percentile(&lat, 0.90);
    let p99 = percentile(&lat, 0.99);
    println!(
        "warm: {total} requests, {wall_s:.2}s wall, {throughput:.0} req/s; \
         p50 {:.1}us p90 {:.1}us p99 {:.1}us; cold {:.2}ms",
        p50 as f64 / 1e3,
        p90 as f64 / 1e3,
        p99 as f64 / 1e3,
        cold_ns as f64 / 1e6,
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": 1,");
    let _ = writeln!(json, "  \"phases\": {},", phases.len());
    let _ = writeln!(json, "  \"clients\": {},", args.clients);
    let _ = writeln!(json, "  \"requests\": {total},");
    let _ = writeln!(json, "  \"wall_s\": {wall_s:.4},");
    let _ = writeln!(json, "  \"throughput_rps\": {throughput:.1},");
    let _ = writeln!(
        json,
        "  \"cold_first_request_ms\": {:.3},",
        cold_ns as f64 / 1e6
    );
    let _ = writeln!(json, "  \"warm_p50_us\": {:.1},", p50 as f64 / 1e3);
    let _ = writeln!(json, "  \"warm_p90_us\": {:.1},", p90 as f64 / 1e3);
    let _ = writeln!(json, "  \"warm_p99_us\": {:.1}", p99 as f64 / 1e3);
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write BENCH_serve.json");
    println!("wrote {}", args.out.display());

    if let Some(baseline_path) = args.check {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", baseline_path.display()));
        let baseline_rps = text
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"throughput_rps\":"))
            .and_then(|v| v.trim().trim_end_matches(',').parse::<f64>().ok())
            .expect("baseline throughput_rps");
        let floor = MIN_WARM_RPS.max(baseline_rps * GATE_RETENTION);
        println!(
            "gate: measured {throughput:.0} req/s vs floor {floor:.0} \
             (baseline {baseline_rps:.0} x {GATE_RETENTION})"
        );
        if throughput < floor {
            eprintln!("serve_bench gate FAILED");
            std::process::exit(1);
        }
        println!("serve_bench gate passed");
    }
}
