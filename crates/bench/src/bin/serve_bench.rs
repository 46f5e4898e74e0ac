//! Closed-loop load generator for the affinity service.
//!
//! Starts an in-process server over a table of the first 8 phases,
//! then drives it with `--clients C` (default 8) closed-loop
//! keep-alive clients for `--requests N` (default 20,000) total warm
//! requests, mixing `POST /v1/affinity` (known phases) with
//! `GET /v1/designs` and `GET /healthz` in a 8:1:1 ratio. Reports
//! cold-start latency (first request, empty OS caches for the
//! connection), warm nearest-rank p50/p90/p99, and sustained
//! throughput, and writes `BENCH_serve.json`.
//!
//! The run fails (exit 1) if warm throughput drops below `1000 req/s`,
//! or, with `--check <baseline.json>`, below 50% of the committed
//! baseline ([`cisa_bench::ledger::SERVE`]) — an absolute floor plus a
//! machine-relative gate.
//!
//! Usage: `serve_bench [--out <path>] [--check <baseline.json>]
//! [--requests N] [--clients C]`

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use cisa_bench::ledger::{Record, SERVE};
use cisa_bench::request;
use cisa_explore::{DesignSpace, PerfTable, ShardedProfileStore, SweepRunner};
use cisa_fleet::report::percentile;
use cisa_serve::{ServeConfig, Server, ServerState};
use cisa_workloads::PhaseSpec;

/// Phases in the served table.
const PHASES: usize = 8;

/// One keep-alive connection issuing timed requests.
struct Client(TcpStream);

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to bench server");
        stream.set_nodelay(true).expect("nodelay");
        Client(stream)
    }

    /// Issues one request, returns (latency_ns, status).
    fn roundtrip(&mut self, method: &str, target: &str, body: &str) -> (u64, u16) {
        let t = Instant::now();
        let status = request(&mut self.0, method, target, body);
        (t.elapsed().as_nanos() as u64, status)
    }
}

fn main() {
    let args = SERVE.args(&["--requests", "--clients"]);
    let requests: usize = args.get("--requests", 20_000);
    let clients: usize = args.get("--clients", 8);
    let space = DesignSpace::new();
    let phases: Vec<PhaseSpec> = cisa_workloads::all_phases()
        .into_iter()
        .take(PHASES)
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
    let per_client = requests / clients;
    let bodies: Vec<String> = phases
        .iter()
        .map(|s| format!(r#"{{"phase":"{}","top":5}}"#, s.name()))
        .collect();
    let started = Instant::now();
    let all_lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
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

    let mut lat: Vec<u64> = all_lat.into_iter().flatten().collect();
    lat.sort_unstable();
    let lat_us: Vec<f64> = lat.iter().map(|&ns| ns as f64 / 1e3).collect();
    let [p50, p90, p99] = [0.50, 0.90, 0.99].map(|q| percentile(&lat_us, q));
    let cold_ms = cold_ns as f64 / 1e6;
    println!(
        "warm: {total} requests, {wall_s:.2}s wall, {throughput:.0} req/s; \
         p50 {p50:.1}us p90 {p90:.1}us p99 {p99:.1}us; cold {cold_ms:.2}ms"
    );

    let mut record = Record::new();
    record
        .int("phases", phases.len() as u64)
        .int("clients", clients as u64)
        .int("requests", total as u64)
        .num("wall_s", wall_s)
        .num("throughput_rps", throughput)
        .num("cold_first_request_ms", cold_ms)
        .num("warm_p50_us", p50)
        .num("warm_p90_us", p90)
        .num("warm_p99_us", p99);
    SERVE.finish(&args, &record);
}
