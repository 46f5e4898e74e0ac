//! The chaos harness: a fixed-seed fault matrix driven against a live
//! loopback server.
//!
//! Every seed builds a fresh server wired to a seeded [`FaultPlan`]
//! (forced worker panics, injected store I/O errors) and then attacks
//! it over real sockets with the plan's wire-level faults: slow-loris
//! clients, torn partial writes, mid-response aborts. The acceptance
//! bar after each seed's bombardment:
//!
//! - zero hangs (every client interaction is time-bounded),
//! - the server still answers, and pinned-row answers are still
//!   bit-identical to the batch table,
//! - the profile store has no crash debris (`recover()` is clean),
//! - `shutdown()` drains and returns.
//!
//! Failures replay exactly: every decision is a pure function of the
//! seed baked into `SEEDS`.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cisa_explore::{
    DesignId, DesignSpace, FaultPlan, PerfTable, ProfileCache, ShardedProfileStore, SweepRunner,
};
use cisa_serve::json::{parse, Json};
use cisa_serve::{ServeConfig, Server, ServerState};
use cisa_workloads::PhaseSpec;

/// The fixed fault matrix. Every seed runs the full scenario sequence;
/// a failure names its seed, and rerunning replays it bit-for-bit.
const SEEDS: [u64; 8] = [3, 17, 99, 404, 1234, 0xBEEF, 0xC1A0, 20260808];

/// Upper bound on any single client interaction; crossing it is the
/// hang the suite exists to catch.
const HANG: Duration = Duration::from_secs(10);

fn fixture() -> &'static (PerfTable, Vec<PhaseSpec>) {
    static FIXTURE: OnceLock<(PerfTable, Vec<PhaseSpec>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let space = DesignSpace::new();
        let phases: Vec<PhaseSpec> = cisa_workloads::all_phases().into_iter().take(2).collect();
        let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
        (table, phases)
    })
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cisa-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One complete response off the stream: `(status, head, body)`.
fn read_reply(stream: &mut TcpStream) -> Option<(u16, String, String)> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let head_end = loop {
        if let Some(p) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    };
    let head = String::from_utf8(raw[..head_end].to_vec()).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let content_length: usize = head.lines().find_map(|l| {
        let lower = l.to_ascii_lowercase();
        lower
            .strip_prefix("content-length:")
            .map(|v| v.trim().parse().ok())?
    })?;
    let mut body = raw[head_end..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => body.extend_from_slice(&buf[..n]),
        }
    }
    body.truncate(content_length);
    Some((status, head, String::from_utf8(body).ok()?))
}

/// One-shot request with a hard hang bound; `None` if the server
/// dropped the connection without a complete response.
fn request(addr: std::net::SocketAddr, raw: &[u8]) -> Option<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(HANG)).expect("cfg");
    stream.set_write_timeout(Some(HANG)).expect("cfg");
    let _ = stream.write_all(raw);
    read_reply(&mut stream)
}

fn get(addr: std::net::SocketAddr, target: &str) -> Option<(u16, String, String)> {
    request(
        addr,
        format!(
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        )
        .as_bytes(),
    )
}

fn affinity_raw(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/affinity HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn counter(name: &str) -> u64 {
    cisa_obs::snapshot().counter(name)
}

/// Polls until `cond` holds; panics (naming `what`) if it never does.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < HANG, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Scenario 1: the plan kills the worker serving request sequence 1.
/// The supervisor must respawn it and the server must keep answering.
fn scenario_forced_panic(addr: std::net::SocketAddr, seed: u64) {
    // Request seq 0: a normal answer before the bomb.
    let (status, _, _) = get(addr, "/healthz").expect("seed {seed}: pre-panic healthz");
    assert_eq!(status, 200, "seed {seed}");

    // Request seq 1: the worker panics mid-request; the connection
    // just dies. No response is the expected outcome — a hang is not.
    let respawns = counter("serve/resilience/respawn_worker");
    let reply = get(addr, "/healthz");
    assert!(
        reply.is_none(),
        "seed {seed}: the doomed request gets no reply"
    );
    eventually("worker respawn", || {
        counter("serve/resilience/respawn_worker") > respawns
    });

    // The respawned pool answers.
    let (status, _, body) = get(addr, "/healthz").expect("post-panic healthz");
    assert_eq!(status, 200, "seed {seed}: {body}");
}

/// Scenario 2: a slow-loris client paced by the plan. The read budget
/// must cut it off with a 408 (or a close) — never a hang.
fn scenario_slow_loris(addr: std::net::SocketAddr, plan: &FaultPlan, seed: u64) {
    let head = b"POST /v1/affinity HTTP/1.1\r\nHost: t\r\n";
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(HANG)).expect("cfg");
    let started = Instant::now();
    let mut sent = 0usize;
    let mut step = 0usize;
    while sent < head.len() {
        let (chunk, pause_ms) = plan.slow_loris_params(step);
        step += 1;
        let end = (sent + chunk).min(head.len());
        if stream.write_all(&head[sent..end]).is_err() {
            break; // server already cut us off
        }
        sent = end;
        assert!(
            started.elapsed() < HANG,
            "seed {seed}: loris write loop must be cut off"
        );
        std::thread::sleep(Duration::from_millis(pause_ms));
    }
    // Whatever the server did — a structured 408 or a plain cut (no
    // reply at all) — it must resolve promptly; only a hang fails.
    if let Some((status, _, body)) = read_reply(&mut stream) {
        assert_eq!(status, 408, "seed {seed}: {body}");
        assert!(body.contains("request_timeout"), "seed {seed}: {body}");
    }
    assert!(
        started.elapsed() < HANG,
        "seed {seed}: loris interaction bounded"
    );
}

/// Scenario 3: torn partial writes — the client sends a plan-chosen
/// prefix of a valid request and vanishes.
fn scenario_torn_writes(addr: std::net::SocketAddr, plan: &FaultPlan, seed: u64) {
    let full = affinity_raw(r#"{"phase":"tear-target","objective":"edp"}"#);
    for i in 0..3 {
        let cut = plan.wire_cut(i, full.len());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(HANG)).expect("cfg");
        stream.write_all(&full[..cut]).expect("torn prefix");
        stream.shutdown(Shutdown::Write).expect("half-close");
        // The server answers with a structured 400/408 or closes; it
        // must not hang and must not crash.
        let started = Instant::now();
        let _ = read_reply(&mut stream);
        assert!(
            started.elapsed() < HANG,
            "seed {seed}: torn write {i} (cut {cut}/{}) bounded",
            full.len()
        );
    }
}

/// Scenario 4: mid-response aborts — send a valid request, then close
/// without reading the answer.
fn scenario_abandoned_response(addr: std::net::SocketAddr, seed: u64) {
    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                b"GET /v1/designs?limit=1000 HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
            )
            .expect("request");
        drop(stream); // vanish before the (large) response is read
    }
    // The pool shrugs it off.
    let (status, _, _) = get(addr, "/healthz").expect("healthz after aborts");
    assert_eq!(status, 200, "seed {seed}");
}

/// Scenario 5: online refinement while the disk tier throws injected
/// I/O errors. Degraded is fine; wrong or crashed is not.
fn scenario_refine_with_store_faults(addr: std::net::SocketAddr, seed: u64) {
    let body = format!(r#"{{"spec":{{"benchmark":"mcf","seed":{seed}}},"top":3}}"#);
    let (status, _, text) =
        request(addr, &affinity_raw(&body)).expect("refinement under store faults");
    assert_eq!(status, 200, "seed {seed}: {text}");
    let v = parse(&text).expect("valid JSON");
    assert_eq!(v.get("source").and_then(Json::as_str), Some("refined"));

    // Re-ask: the row tier answers without touching the faulty disk.
    let (status, _, text2) = request(addr, &affinity_raw(&body)).expect("cached re-ask");
    assert_eq!(status, 200, "seed {seed}");
    let v2 = parse(&text2).expect("valid JSON");
    assert_eq!(v2.get("source").and_then(Json::as_str), Some("cached"));
    // Same fingerprint, same ranked bits.
    let bits = |v: &Json| {
        v.get("ranked").and_then(Json::as_arr).expect("ranked")[0]
            .get("cycles_per_unit_bits")
            .and_then(Json::as_str)
            .expect("bits")
            .to_string()
    };
    assert_eq!(
        bits(&v),
        bits(&v2),
        "seed {seed}: cached row is the refined row"
    );
}

/// Post-bombardment acceptance for one seed's server.
fn final_acceptance(addr: std::net::SocketAddr, state: &Arc<ServerState>, seed: u64) {
    // Pinned rows still bit-identical to the batch table.
    let (table, phases) = fixture();
    let phase = phases[0].name();
    let (status, _, text) = request(
        addr,
        &affinity_raw(&format!(r#"{{"phase":"{phase}","top":1}}"#)),
    )
    .expect("pinned query");
    assert_eq!(status, 200, "seed {seed}: {text}");
    let v = parse(&text).expect("valid JSON");
    assert_eq!(v.get("source").and_then(Json::as_str), Some("table"));
    let entry = &v.get("ranked").and_then(Json::as_arr).expect("ranked")[0];
    let fs_name = entry.get("feature_set").and_then(Json::as_str).expect("fs");
    let fi = DesignSpace::new()
        .feature_sets
        .iter()
        .position(|f| f.to_string() == fs_name)
        .expect("known fs");
    let ua = entry.get("ua_index").and_then(Json::as_f64).expect("ua") as usize;
    let expected = table.get(
        0,
        DesignId {
            fs: fi as u16,
            ua: ua as u16,
        },
    );
    let got_bits = entry
        .get("cycles_per_unit_bits")
        .and_then(Json::as_str)
        .map(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex"))
        .expect("bits field");
    assert_eq!(
        got_bits,
        expected.cycles_per_unit.to_bits(),
        "seed {seed}: pinned answers survive chaos bit-identically"
    );

    // Healthy and clean: running lifecycle, no store crash debris.
    let (status, _, health) = get(addr, "/healthz").expect("final healthz");
    assert_eq!(status, 200, "seed {seed}");
    let h = parse(&health).expect("json");
    assert_eq!(
        h.get("status").and_then(Json::as_str),
        Some("ok"),
        "seed {seed}"
    );
    let report = state.store().recover();
    assert!(
        report.is_clean(),
        "seed {seed}: no torn entries or temp debris: {report:?}"
    );
}

#[test]
fn fixed_seed_fault_matrix_never_hangs_or_corrupts() {
    let (table, phases) = fixture();
    for (si, &seed) in SEEDS.iter().enumerate() {
        let plan = FaultPlan::new(seed)
            .with_store_io_errors(0.3)
            .with_serve_panics(&[1]);
        let dir = tmp_dir(&format!("seed-{seed}"));
        let store =
            ShardedProfileStore::new(Some(ProfileCache::new(&dir))).with_fault_plan(plan.clone());
        let config = ServeConfig {
            workers: 2,
            idle_timeout: Duration::from_millis(300),
            read_budget: Duration::from_millis(400),
            drain_grace: Duration::from_millis(30),
            chaos: Some(plan.clone()),
            ..ServeConfig::default()
        };
        let state = Arc::new(ServerState::from_table(
            DesignSpace::new(),
            table,
            phases.clone(),
            store,
            config,
        ));
        let mut server = Server::start("127.0.0.1:0", Arc::clone(&state)).expect("bind loopback");
        let addr = server.addr();

        // Fixed scenario order: the forced panic targets request
        // sequence 1, so it must run first, while sequence numbers are
        // known absolutely.
        scenario_forced_panic(addr, seed);
        scenario_slow_loris(addr, &plan, seed);
        scenario_torn_writes(addr, &plan, seed);
        scenario_abandoned_response(addr, seed);
        // Refinement is seconds of probing; two seeds cover the
        // store-fault path without turning the matrix into a sweep.
        if si < 2 {
            scenario_refine_with_store_faults(addr, seed);
        }
        final_acceptance(addr, &state, seed);

        // Drain returns: the hang gate for shutdown itself.
        let begun = Instant::now();
        server.shutdown();
        assert!(
            begun.elapsed() < HANG,
            "seed {seed}: shutdown drains promptly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
