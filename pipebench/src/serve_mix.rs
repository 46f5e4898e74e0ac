//! `serve-mix`: the affinity service with reads beside refinements.
//!
//! Set-up builds a table over a few seed-perturbed corpus phases, starts
//! the server in-process on a loopback port and refines a few inline
//! specs so that later requests for them hit the row cache. The timed
//! phase drives two keep-alive connections in lock-step:
//!
//! * the write connection sends one never-seen inline `spec` per step,
//!   each answered by online refinement (`source: "refined"`);
//! * the read connection sends a seeded chunk of pinned-table
//!   (`source: "table"`), row-cache (`source: "cached"`) and
//!   `/v1/designs` requests during the same step.
//!
//! One op, and one work unit, is one HTTP request. Request counts and
//! class shares come from the seeded schedule, never from elapsed time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cisa_explore::{DesignId, DesignSpace, PerfTable, ShardedProfileStore, SweepRunner};
use cisa_serve::json::{self, Json};
use cisa_serve::{ServeConfig, Server, ServerState};
use cisa_workloads::{all_benchmarks, all_phases, PhaseSpec};

use crate::{
    build_table, median, obs_self_s, obs_span, record_obs_layers, record_table_layers,
    repeat_setup, tail, Op, Rng, Run, RunCtx, SETUP_SPAN,
};

/// Refinements per requested second, sized from measured single-thread
/// refinement times (about 0.4 s each).
const REFINES_PER_SECOND: f64 = 2.4;

/// Every server setting, spelled out rather than taken from
/// `ServeConfig::default()`: one worker per connection, one
/// refinement at a time on one thread, and deadlines far beyond any
/// refinement so that none times out.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        refine_threads: 1,
        max_concurrent_refines: 1,
        default_deadline: Duration::from_secs(120),
        idle_timeout: Duration::from_secs(120),
        row_shards: 8,
        row_capacity_per_shard: 64,
        queue_capacity: 16,
        refine_budget: Duration::from_secs(120),
        breaker_threshold: 5,
        breaker_cooldown: Duration::from_secs(2),
        shed_retry_after_s: 1,
        drain_grace: Duration::from_millis(50),
        read_budget: Duration::from_secs(10),
        chaos: None,
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus phases in the pinned table.
    pub phases: usize,
    /// Inline specs refined during set-up, then read from the row cache.
    pub warm_specs: usize,
    /// Steps of the timed phase: one refinement each.
    pub refines: usize,
    /// Reads sent per step.
    pub reads_per_step: usize,
    /// Set-ups per run; set-up time is their median.
    pub setups: usize,
}

impl Scale {
    /// The scale for a run of about `seconds` seconds. At least 22
    /// refinements keep the tail (ten samples beyond it) inside the
    /// refinement class.
    pub fn for_seconds(seconds: u64) -> Self {
        let refines = ((REFINES_PER_SECOND * seconds as f64) as usize).max(22);
        Scale {
            phases: 4,
            warm_specs: 2,
            refines: refines + refines % 2,
            reads_per_step: 1500,
            setups: 3,
        }
    }
}

/// The request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Table,
    Cached,
    Designs,
    Refined,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Request {
    class: Class,
    method: &'static str,
    target: String,
    body: String,
    /// Pinned phase index (table reads).
    phase: usize,
}

/// An inline spec body: a known benchmark's first phase with a fresh
/// generation seed (kept below 2^53 so the JSON number is exact).
fn spec_json(benchmark: &str, seed: u64, index: usize) -> String {
    format!(
        r#"{{"benchmark":"{benchmark}","seed":{},"index":{index}}}"#,
        seed >> 11
    )
}

/// The seeded inputs: pinned phases, warm specs, refinement specs
/// and the read schedule.
struct Schedule {
    phases: Vec<PhaseSpec>,
    warm: Vec<String>,
    writes: Vec<Request>,
    reads: Vec<Vec<Request>>,
}

fn schedule(seed: u64, scale: &Scale) -> Schedule {
    let corpus = all_phases();
    let stride = corpus.len() / scale.phases;
    let mut rng = Rng::new(seed, 2 << 32);
    let phases: Vec<PhaseSpec> = (0..scale.phases)
        .map(|i| PhaseSpec {
            seed: corpus[i * stride].seed ^ rng.next_u64(),
            ..corpus[i * stride].clone()
        })
        .collect();
    let benchmarks: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
    let warm: Vec<String> = (0..scale.warm_specs)
        .map(|i| spec_json(benchmarks[i % benchmarks.len()], rng.next_u64(), 1_000 + i))
        .collect();
    // Steps 2j and 2j + 1 refine specs of the same benchmark, so a
    // traced run can compare its untraced and traced steps pairwise.
    let writes = (0..scale.refines)
        .map(|k| Request {
            class: Class::Refined,
            method: "POST",
            target: "/v1/affinity".to_string(),
            body: format!(
                r#"{{"spec":{},"top":5}}"#,
                spec_json(
                    benchmarks[(k / 2) % benchmarks.len()],
                    rng.next_u64(),
                    2_000 + k
                )
            ),
            phase: 0,
        })
        .collect();
    let reads = (0..scale.refines)
        .map(|_| {
            (0..scale.reads_per_step)
                .map(|_| match rng.below(10) {
                    0..=4 => {
                        let phase = rng.below(phases.len());
                        Request {
                            class: Class::Table,
                            method: "POST",
                            target: "/v1/affinity".to_string(),
                            body: format!(r#"{{"phase":"{}","top":5}}"#, phases[phase].name()),
                            phase,
                        }
                    }
                    5..=7 => Request {
                        class: Class::Cached,
                        method: "POST",
                        target: "/v1/affinity".to_string(),
                        body: format!(r#"{{"spec":{},"top":5}}"#, warm[rng.below(warm.len())]),
                        phase: 0,
                    },
                    _ => {
                        let sem = ["ooo", "in_order"][rng.below(2)];
                        Request {
                            class: Class::Designs,
                            method: "GET",
                            target: format!(
                                "/v1/designs?sem={sem}&limit=20&offset={}",
                                rng.below(100)
                            ),
                            body: String::new(),
                            phase: 0,
                        }
                    }
                })
                .collect()
        })
        .collect();
    Schedule {
        phases,
        warm,
        writes,
        reads,
    }
}

/// One keep-alive HTTP/1.1 connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Client {
            stream,
            buf: vec![0; 64 * 1024],
        }
    }

    /// Sends one request; returns the status, the body and the host
    /// latency in milliseconds from first byte sent to last byte read.
    fn send(&mut self, req: &Request) -> (u16, String, f64) {
        let head = format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            req.method,
            req.target,
            req.body.len()
        );
        let t = Instant::now();
        self.stream
            .write_all(head.as_bytes())
            .expect("write request head");
        self.stream
            .write_all(req.body.as_bytes())
            .expect("write request body");
        let mut data = Vec::with_capacity(4096);
        let (head_end, len) = loop {
            let n = self.stream.read(&mut self.buf).expect("read response");
            assert!(n > 0, "server closed the connection mid-response");
            data.extend_from_slice(&self.buf[..n]);
            if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&data[..pos]).to_ascii_lowercase();
                let len = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:"))
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .expect("response carries Content-Length");
                break (pos + 4, len);
            }
        };
        while data.len() < head_end + len {
            let n = self.stream.read(&mut self.buf).expect("read response body");
            assert!(n > 0, "server closed the connection mid-body");
            data.extend_from_slice(&self.buf[..n]);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let status = std::str::from_utf8(&data[..head_end])
            .ok()
            .and_then(|h| h.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = String::from_utf8_lossy(&data[head_end..head_end + len]).into_owned();
        (status, body, ms)
    }
}

/// Every ranked entry's `_bits` equal the table entry for that phase.
fn bits_match(body: &Json, table: &PerfTable, phase: usize, space: &DesignSpace) -> bool {
    let Some(ranked) = body.get("ranked").and_then(Json::as_arr) else {
        return false;
    };
    !ranked.is_empty()
        && ranked.iter().all(|e| {
            let fs = e
                .get("feature_set")
                .and_then(Json::as_str)
                .and_then(|name| {
                    space
                        .feature_sets
                        .iter()
                        .position(|f| f.to_string() == name)
                });
            let ua = e.get("ua_index").and_then(Json::as_f64);
            let (Some(fs), Some(ua)) = (fs, ua) else {
                return false;
            };
            let want = table.get(
                phase,
                DesignId {
                    fs: fs as u16,
                    ua: ua as u16,
                },
            );
            let bits = |key: &str| e.get(key).and_then(Json::as_str).map(str::to_string);
            bits("cycles_per_unit_bits")
                == Some(format!("{:#018x}", want.cycles_per_unit.to_bits()))
                && bits("energy_per_unit_bits")
                    == Some(format!("{:#018x}", want.energy_per_unit.to_bits()))
        })
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Answer {
    class: Class,
    ms: f64,
    ok: bool,
    /// The tier the response reported (`designs` for a design page).
    source: &'static str,
}

/// Checks one response against what its class must return.
fn check(
    req: &Request,
    status: u16,
    body: &str,
    table: &PerfTable,
    space: &DesignSpace,
) -> (bool, &'static str) {
    let Some(body) = json::parse(body).ok().filter(|_| status == 200) else {
        return (false, "error");
    };
    if req.class == Class::Designs {
        let page = body.get("designs").and_then(Json::as_arr);
        return (page.is_some_and(|d| !d.is_empty()), "designs");
    }
    let source = match body.get("source").and_then(Json::as_str) {
        Some("table") => "table",
        Some("cached") => "cached",
        Some("refined") => "refined",
        _ => "other",
    };
    let ok = match req.class {
        Class::Table => source == "table" && bits_match(&body, table, req.phase, space),
        Class::Cached => source == "cached",
        _ => source == "refined",
    };
    (ok, source)
}

/// Sends `req` and checks the answer.
fn answer(c: &mut Client, req: &Request, table: &PerfTable, space: &DesignSpace) -> Answer {
    let (status, body, ms) = c.send(req);
    let (ok, source) = check(req, status, &body, table, space);
    Answer {
        class: req.class,
        ms,
        ok,
        source,
    }
}

/// A running server and the table it was built from.
struct Service {
    table: PerfTable,
    state: Arc<ServerState>,
    server: Server,
}

fn setup(sched: &Schedule) -> Service {
    let space = DesignSpace::new();
    let runner = SweepRunner::new(1);
    let table = build_table(&space, &sched.phases, &runner);
    let state = Arc::new(ServerState::from_table(
        space,
        &table,
        sched.phases.clone(),
        ShardedProfileStore::new(None),
        serve_config(),
    ));
    let server = {
        let _start = cisa_obs::span("serve.start");
        Server::start("127.0.0.1:0", Arc::clone(&state)).expect("bind a loopback port")
    };
    {
        let _warm = cisa_obs::span("serve.warm");
        let mut c = Client::connect(server.addr());
        for spec in &sched.warm {
            let req = Request {
                class: Class::Refined,
                method: "POST",
                target: "/v1/affinity".to_string(),
                body: format!(r#"{{"spec":{spec},"top":5}}"#),
                phase: 0,
            };
            let a = answer(&mut c, &req, &table, &state.space);
            assert!(a.ok, "warming refinement answered from {}", a.source);
        }
    }
    Service {
        table,
        state,
        server,
    }
}

/// Runs the workload at `scale`.
pub fn run(ctx: &RunCtx, scale: &Scale) -> Run {
    let sched = schedule(ctx.seed, scale);
    let (mut svc, setups_s) = repeat_setup(ctx, scale.setups, || setup(&sched));
    let addr = svc.server.addr();
    let steps = scale.refines;
    // A traced run records only its odd steps; the even ones are the
    // untraced half of each pair.
    let traced_step = |k: usize| ctx.traced() && k % 2 == 1;

    // Lock-step: both connections start step k together and finish it
    // before step k + 1; recording switches between steps, while both
    // connections are idle.
    let barrier = Barrier::new(2);
    let toggle = |k: usize| {
        barrier.wait();
        cisa_obs::set_enabled(traced_step(k));
        barrier.wait();
    };
    let (svc_ref, space) = (&svc, &svc.state.space);
    let (writes, reads, timed_s) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut c = Client::connect(addr);
            let mut out = Vec::new();
            for chunk in &sched.reads {
                barrier.wait();
                barrier.wait();
                for req in chunk {
                    out.push(answer(&mut c, req, &svc_ref.table, space));
                }
            }
            out
        });
        let mut c = Client::connect(addr);
        let mut out = Vec::new();
        let t = Instant::now();
        for (k, req) in sched.writes.iter().enumerate() {
            toggle(k);
            let mut a = answer(&mut c, req, &svc_ref.table, space);
            if ctx.corrupt_op == Some(k) {
                a.ok = false;
            }
            out.push(a);
        }
        let reads = reader.join().expect("read connection");
        (out, reads, t.elapsed().as_secs_f64())
    });
    cisa_obs::set_enabled(false);
    svc.server.shutdown();

    let ops: Vec<Op> = writes
        .iter()
        .chain(&reads)
        .map(|a| Op { ms: a.ms, ok: a.ok })
        .collect();
    let mut run = Run {
        setups_s,
        work_units: ops.len() as f64,
        ops,
        timed_s,
        ..Run::default()
    };
    let mut sources = std::collections::BTreeMap::new();
    for a in reads.iter().chain(&writes) {
        *sources.entry(a.source).or_insert(0u64) += 1;
    }
    run.notes.push(format!(
        "serve-mix: {} pinned phases, {} warm specs, {} steps of 1 refine beside {} reads; \
         2 connections, 2 workers, 1 refine thread; answers by source {sources:?}",
        scale.phases, scale.warm_specs, steps, scale.reads_per_step
    ));
    if ctx.traced() {
        // Per-layer numbers come from the traced steps.
        let per_step = scale.reads_per_step;
        let split = |rs: &[Answer], n: usize, traced: bool| -> Vec<Answer> {
            rs.chunks(n)
                .enumerate()
                .filter(|(k, _)| traced_step(*k) == traced)
                .flat_map(|(_, c)| c.iter().copied())
                .collect()
        };
        let (traced_reads, traced_writes) =
            (split(&reads, per_step, true), split(&writes, 1, true));
        let ms_of = |rs: &[Answer], c: Option<Class>| -> Vec<f64> {
            rs.iter()
                .filter(|a| c.is_none_or(|c| a.class == c))
                .map(|a| a.ms)
                .collect()
        };
        let sum = |rs: &[Answer]| rs.iter().map(|a| a.ms).sum::<f64>();
        let snap = cisa_obs::snapshot();
        let l = &mut run.layers;
        record_obs_layers(l);
        record_table_layers(l, &snap);
        for (c, name) in [
            (Class::Table, "serve.table_p50_ms"),
            (Class::Cached, "serve.cached_p50_ms"),
            (Class::Designs, "serve.designs_p50_ms"),
        ] {
            l.set(name, median(&ms_of(&traced_reads, Some(c))));
        }
        if let Some(t) = tail(&ms_of(&traced_reads, None)) {
            l.set("serve.read_tail_ms", t.value);
        }
        l.set("serve.refined_p50_ms", median(&ms_of(&traced_writes, None)));
        let (refine_ms, refines) = obs_span(&snap, "refine");
        l.set("serve.refine_ms", refine_ms / refines.max(1) as f64);
        let st = svc.state.store().stats();
        let lookups = (st.mem_hits + st.disk_hits + st.misses).max(1);
        l.set("explore.store.mem_hits", st.mem_hits as f64);
        l.set("explore.store.misses", st.misses as f64);
        l.set(
            "explore.store.hit_ratio",
            st.mem_hits as f64 / lookups as f64,
        );
        l.set("bench.setup_self_s", obs_self_s(&snap, SETUP_SPAN));
        let untraced = sum(&split(&reads, per_step, false)) + sum(&split(&writes, 1, false));
        let traced = sum(&traced_reads) + sum(&traced_writes);
        l.set("bench.trace_overhead_frac", traced / untraced - 1.0);
    }
    run
}
