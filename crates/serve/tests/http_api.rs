//! Loopback integration tests: a real server on an ephemeral port, a
//! raw `TcpStream` client, and the acceptance properties of the
//! service — bit-identity with the batch path, online refinement with
//! one probe per distinct compilation and zero probes on the second
//! hit, structured errors, deadlines.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};

use cisa_explore::profile::codegen_fingerprint;
use cisa_explore::{
    probes_run, DesignId, DesignSpace, PerfTable, ShardedProfileStore, SweepRunner,
};
use cisa_isa::FeatureSet;
use cisa_serve::json::{parse, Json};
use cisa_serve::{ServeConfig, Server, ServerState};
use cisa_workloads::PhaseSpec;

/// Phases the shared test table is built for (kept small: the table
/// build probes `phases x 26` feature sets once per test binary).
const N_PHASES: usize = 3;

struct Fixture {
    space: DesignSpace,
    table: PerfTable,
    phases: Vec<PhaseSpec>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let space = DesignSpace::new();
        let phases: Vec<PhaseSpec> = cisa_workloads::all_phases()
            .into_iter()
            .take(N_PHASES)
            .collect();
        let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
        Fixture {
            space,
            table,
            phases,
        }
    })
}

/// A fresh state per server: tests run in parallel, and lifecycle
/// (running / draining) is per-state, so sharing one state across
/// servers would let one test's shutdown drain another's. Building
/// state from the shared table is cheap; only the table build is not.
fn fresh_state() -> Arc<ServerState> {
    let fx = fixture();
    Arc::new(ServerState::from_table(
        DesignSpace::new(),
        &fx.table,
        fx.phases.clone(),
        ShardedProfileStore::new(None),
        ServeConfig::default(),
    ))
}

/// Held by every test that probes after the shared fixture is built:
/// [`probes_run`] is process-wide, so a probe-count delta is exact only
/// while no other test in this binary probes.
fn probe_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The phase a `{"spec":{"benchmark":"mcf",...}}` request refines: the
/// benchmark's first phase with the request's fields overridden.
fn mcf_spec(seed: u64, mem_intensity: f64, loop_trip: u32) -> PhaseSpec {
    let mut spec = cisa_workloads::all_phases()
        .into_iter()
        .find(|p| p.benchmark == "mcf")
        .expect("mcf phases");
    spec.seed = seed;
    spec.mem_intensity = mem_intensity;
    spec.loop_trip = loop_trip;
    spec
}

fn start_server() -> Server {
    Server::start("127.0.0.1:0", fresh_state()).expect("bind loopback")
}

/// One-shot HTTP client: sends a request with `Connection: close` and
/// returns `(status, body)`.
fn request(
    addr: std::net::SocketAddr,
    method: &str,
    target: &str,
    body: impl AsRef<[u8]>,
) -> (u16, String) {
    let body = body.as_ref();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    // The server may answer (413) before the body is fully written;
    // keep reading whatever it sent even if the write fails.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response framing");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, body.to_string())
}

fn post_affinity(addr: std::net::SocketAddr, body: &str) -> (u16, Json) {
    let (status, text) = request(addr, "POST", "/v1/affinity", body);
    (status, parse(&text).expect("response is valid JSON"))
}

/// Bits of the two core floats of one ranked entry, read back from the
/// response's hex fields.
fn entry_bits(entry: &Json) -> (u64, u64) {
    let hex = |key: &str| -> u64 {
        let s = entry.get(key).and_then(Json::as_str).expect("bits field");
        u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex bits")
    };
    (hex("cycles_per_unit_bits"), hex("energy_per_unit_bits"))
}

#[test]
fn healthz_reports_table_shape() {
    let server = start_server();
    let (status, text) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    let v = parse(&text).expect("valid JSON");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        v.get("phases").and_then(Json::as_f64),
        Some(N_PHASES as f64)
    );
    assert_eq!(v.get("feature_sets").and_then(Json::as_f64), Some(26.0));
}

#[test]
fn affinity_for_known_phase_is_bit_identical_to_batch_table() {
    let fx = fixture();
    let server = start_server();
    let phase = fx.phases[0].name();
    let body = format!(r#"{{"phase":"{phase}","objective":"edp"}}"#);
    let (status, v) = post_affinity(server.addr(), &body);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("source").and_then(Json::as_str), Some("table"));

    let ranked = v.get("ranked").and_then(Json::as_arr).expect("ranked");
    assert_eq!(ranked.len(), 26, "one entry per feature set");
    let n_ua = fx.space.microarchs.len();
    for entry in ranked {
        let fs_name = entry
            .get("feature_set")
            .and_then(Json::as_str)
            .expect("feature_set");
        let fi = fx
            .space
            .feature_sets
            .iter()
            .position(|f| f.to_string() == fs_name)
            .expect("known feature set");
        let ua = entry.get("ua_index").and_then(Json::as_f64).expect("ua") as usize;
        // The batch-path answer for the same (phase, design point).
        let expected = fx.table.get(
            0,
            DesignId {
                fs: fi as u16,
                ua: ua as u16,
            },
        );
        let (cycles_bits, energy_bits) = entry_bits(entry);
        assert_eq!(
            cycles_bits,
            expected.cycles_per_unit.to_bits(),
            "cycles bits for {fs_name} ua {ua}"
        );
        assert_eq!(
            energy_bits,
            expected.energy_per_unit.to_bits(),
            "energy bits for {fs_name} ua {ua}"
        );
        // The decimal fields round-trip to the same bits.
        assert_eq!(
            entry
                .get("cycles_per_unit")
                .and_then(Json::as_f64)
                .expect("cycles")
                .to_bits(),
            expected.cycles_per_unit.to_bits()
        );
        // And the entry's best-in-budget claim holds: no cheaper EDP
        // among this feature set's microarchs.
        let perf_edp = |p: cisa_explore::PhasePerf| {
            p.energy_per_unit * (p.cycles_per_unit / cisa_power::CLOCK_HZ)
        };
        let best = (0..n_ua)
            .map(|u| {
                perf_edp(fx.table.get(
                    0,
                    DesignId {
                        fs: fi as u16,
                        ua: u as u16,
                    },
                ))
            })
            .fold(f64::INFINITY, f64::min);
        assert_eq!(perf_edp(expected), best, "best microarch for {fs_name}");
    }
}

#[test]
fn malformed_json_gets_structured_400() {
    let server = start_server();
    // Both POST routes parse their body the same way and answer a bad
    // one with the same bytes.
    for route in ["/v1/affinity", "/v1/analyze"] {
        let (status, text) = request(server.addr(), "POST", route, r#"{"phase": "#);
        assert_eq!(status, 400, "{route}");
        let v = parse(&text).expect("response is valid JSON");
        let err = v.get("error").expect("error envelope");
        assert_eq!(err.get("code").and_then(Json::as_str), Some("bad_json"));
        assert!(err
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("byte")));

        let not_utf8: &[u8] = b"{\"phase\":\"\xff\"}";
        assert_eq!(
            request(server.addr(), "POST", route, not_utf8),
            (
                400,
                r#"{"error":{"status":400,"code":"bad_request","message":"body is not UTF-8"}}"#
                    .to_string()
            ),
            "{route}"
        );
        assert_eq!(
            request(server.addr(), "POST", route, "[1,2]"),
            (
                400,
                r#"{"error":{"status":400,"code":"bad_request","message":"request body must be a JSON object"}}"#
                    .to_string()
            ),
            "{route}"
        );
    }
}

#[test]
fn oversized_body_gets_413() {
    let server = start_server();
    let big = format!(r#"{{"phase":"{}"}}"#, "x".repeat(70 * 1024));
    let (status, text) = request(server.addr(), "POST", "/v1/affinity", &big);
    assert_eq!(status, 413);
    let v = parse(&text).expect("valid JSON");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("body_too_large")
    );
}

#[test]
fn unknown_routes_and_methods() {
    let server = start_server();
    let (status, _) = request(server.addr(), "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(server.addr(), "DELETE", "/v1/affinity", "");
    assert_eq!(status, 405);
    let (status, v) = post_affinity(server.addr(), r#"{"phase":"no_such.p9"}"#);
    assert_eq!(status, 404);
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_phase")
    );
}

#[test]
fn unknown_fingerprint_refines_once_then_serves_from_cache() {
    let server = start_server();
    // A spec no batch table has seen: a known benchmark reshaped.
    let body =
        r#"{"spec":{"benchmark":"mcf","seed":20260808,"mem_intensity":0.85,"loop_trip":64}}"#;

    // Refinement probes each distinct compilation of the spec once:
    // feature sets whose code is identical share one probe.
    let spec = mcf_spec(20260808, 0.85, 64);
    let ir = cisa_workloads::generate(&spec);
    let distinct: BTreeSet<u64> = FeatureSet::all()
        .iter()
        .map(|fs| {
            let code = cisa_compiler::compile(&ir, fs, &cisa_compiler::CompileOptions::default())
                .expect("generated phases compile");
            codegen_fingerprint(&code)
        })
        .collect();
    assert!(
        distinct.len() < 26,
        "some feature sets share code ({} distinct)",
        distinct.len()
    );

    let _probes = probe_lock();
    let before = probes_run();
    let dedup_before = cisa_obs::snapshot().counter("probe/dedup_hit");
    let (status, v1) = post_affinity(server.addr(), body);
    assert_eq!(status, 200, "{v1:?}");
    assert_eq!(v1.get("source").and_then(Json::as_str), Some("refined"));
    assert_eq!(
        v1.get("fingerprint").and_then(Json::as_str),
        Some(spec.fingerprint().as_str())
    );
    let after_first = probes_run();
    assert_eq!(
        after_first - before,
        distinct.len() as u64,
        "refinement probes each distinct compilation exactly once"
    );
    assert_eq!(
        cisa_obs::snapshot().counter("probe/dedup_hit") - dedup_before,
        26 - distinct.len() as u64,
        "every other feature set reuses a measured profile"
    );

    let hits_before = cisa_obs::snapshot().counter("serve/affinity/row_hit");
    let (status, v2) = post_affinity(server.addr(), body);
    assert_eq!(status, 200);
    assert_eq!(v2.get("source").and_then(Json::as_str), Some("cached"));
    assert_eq!(probes_run(), after_first, "second request runs zero probes");
    assert!(
        cisa_obs::snapshot().counter("serve/affinity/row_hit") > hits_before,
        "the row LRU answered the second request"
    );

    // Same fingerprint, same bits: the cached row IS the refined row.
    let ranked1 = v1.get("ranked").and_then(Json::as_arr).expect("ranked");
    let ranked2 = v2.get("ranked").and_then(Json::as_arr).expect("ranked");
    assert_eq!(ranked1.len(), ranked2.len());
    for (a, b) in ranked1.iter().zip(ranked2) {
        assert_eq!(entry_bits(a), entry_bits(b));
    }
}

#[test]
fn refined_row_is_bit_identical_to_batch_table() {
    let server = start_server();
    // A spec no batch table has seen, refined online, then built into a
    // one-phase table by the batch path.
    let body = r#"{"spec":{"benchmark":"mcf","seed":20261018,"mem_intensity":0.6,"loop_trip":48},"objective":"edp"}"#;
    let spec = mcf_spec(20261018, 0.6, 48);

    let _probes = probe_lock();
    let (status, v) = post_affinity(server.addr(), body);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("source").and_then(Json::as_str), Some("refined"));
    assert_eq!(
        v.get("fingerprint").and_then(Json::as_str),
        Some(spec.fingerprint().as_str())
    );
    let space = DesignSpace::new();
    let (table, report) = PerfTable::build(&space, &[spec], &SweepRunner::new(1));
    assert!(report.is_clean(), "{report:?}");

    let ranked = v.get("ranked").and_then(Json::as_arr).expect("ranked");
    assert_eq!(ranked.len(), 26, "one entry per feature set");
    for entry in ranked {
        let fs_name = entry
            .get("feature_set")
            .and_then(Json::as_str)
            .expect("feature_set");
        let fi = space
            .feature_sets
            .iter()
            .position(|f| f.to_string() == fs_name)
            .expect("known feature set");
        let ua = entry.get("ua_index").and_then(Json::as_f64).expect("ua") as u16;
        let expected = table.get(0, DesignId { fs: fi as u16, ua });
        assert_eq!(
            entry_bits(entry),
            (
                expected.cycles_per_unit.to_bits(),
                expected.energy_per_unit.to_bits()
            ),
            "bits for {fs_name} ua {ua}"
        );
    }
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let fx = fixture();
    let server = start_server();
    let addr = server.addr();
    let phase = fx.phases[1].name();
    let body = format!(r#"{{"phase":"{phase}","top":5}}"#);

    let answers: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || {
                    let (status, text) = request(addr, "POST", "/v1/affinity", &body);
                    assert_eq!(status, 200);
                    text
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    // Byte-for-byte identical responses across all concurrent clients.
    for a in &answers[1..] {
        assert_eq!(a, &answers[0]);
    }
    // And identical to the batch table for the winning entry.
    let v = parse(&answers[0]).expect("valid JSON");
    let first = v.get("ranked").and_then(Json::as_arr).expect("ranked")[0].clone();
    let fs_name = first.get("feature_set").and_then(Json::as_str).expect("fs");
    let fi = fx
        .space
        .feature_sets
        .iter()
        .position(|f| f.to_string() == fs_name)
        .expect("known fs");
    let ua = first.get("ua_index").and_then(Json::as_f64).expect("ua") as usize;
    let expected = fx.table.get(
        1,
        DesignId {
            fs: fi as u16,
            ua: ua as u16,
        },
    );
    assert_eq!(
        entry_bits(&first).0,
        expected.cycles_per_unit.to_bits(),
        "concurrent answers match the batch path"
    );
}

#[test]
fn expired_deadline_gets_structured_504() {
    let server = start_server();
    // Unknown fingerprint (would need refinement) + zero deadline.
    let body = r#"{"spec":{"benchmark":"sjeng","seed":777},"deadline_ms":0}"#;
    let (status, v) = post_affinity(server.addr(), body);
    assert_eq!(status, 504);
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("deadline_exceeded")
    );
}

#[test]
fn designs_endpoint_filters_and_pages() {
    let fx = fixture();
    let server = start_server();
    let fs = fx.space.feature_sets[0].to_string();
    let (status, text) = request(
        server.addr(),
        "GET",
        &format!("/v1/designs?fs={fs}&sem=ooo&limit=10"),
        "",
    );
    assert_eq!(status, 200);
    let v = parse(&text).expect("valid JSON");
    let designs = v.get("designs").and_then(Json::as_arr).expect("designs");
    assert!(designs.len() <= 10);
    assert!(!designs.is_empty());
    for d in designs {
        assert_eq!(
            d.get("feature_set").and_then(Json::as_str),
            Some(fs.as_str())
        );
        assert_eq!(
            d.get("microarch")
                .and_then(|m| m.get("sem"))
                .and_then(Json::as_str),
            Some("ooo")
        );
    }
    // An impossible filter matches nothing but still succeeds.
    let (status, text) = request(server.addr(), "GET", "/v1/designs?max_area_mm2=0.001", "");
    assert_eq!(status, 200);
    let v = parse(&text).expect("valid JSON");
    assert_eq!(v.get("total_matched").and_then(Json::as_f64), Some(0.0));
    // A bad filter is a structured 400.
    let (status, _) = request(server.addr(), "GET", "/v1/designs?sem=sideways", "");
    assert_eq!(status, 400);
}

#[test]
fn metrics_endpoint_exposes_request_counters() {
    let server = start_server();
    // Generate at least one request before scraping.
    let (status, _) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, text) = request(server.addr(), "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let v = parse(&text).expect("valid JSON");
    assert!(v.get("service").and_then(|s| s.get("uptime_s")).is_some());
    let counters = v
        .get("registry")
        .and_then(|r| r.get("counters"))
        .expect("registry counters");
    assert!(
        counters
            .get("serve/request")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "serve/request counter is live: {counters:?}"
    );
}

#[test]
fn analyze_endpoint_reports_facts_and_refined_classes() {
    let fx = fixture();
    let server = start_server();
    let phase = fx.phases[0].name();
    let body = format!(r#"{{"phase":"{phase}","feature_set":"x86-64D-64W-P"}}"#);
    let (status, text) = request(server.addr(), "POST", "/v1/analyze", &body);
    assert_eq!(status, 200, "{text}");
    let v = parse(&text).expect("valid JSON");
    assert_eq!(v.get("phase").and_then(Json::as_str), Some(phase.as_str()));
    // The compiled superset image decodes and its minimal needs fit.
    assert_eq!(v.get("covered"), Some(&Json::Bool(true)));
    assert!(v
        .get("minimal_feature_set")
        .and_then(Json::as_str)
        .is_some());
    let cfg = v.get("cfg").expect("cfg");
    assert!(cfg.get("blocks").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    let targets = v.get("targets").and_then(Json::as_arr).expect("targets");
    assert_eq!(targets.len(), 26);
    for t in targets {
        let base = t.get("conservative").and_then(Json::as_str).expect("base");
        let refined = t.get("refined").and_then(Json::as_str).expect("refined");
        let order = |c: &str| match c {
            "native" => 0,
            "transforming" => 1,
            _ => 2,
        };
        assert!(
            order(refined) <= order(base),
            "refinement went pessimistic: {t:?}"
        );
    }
    // Findings carry registry rule names only.
    for f in v.get("findings").and_then(Json::as_arr).expect("findings") {
        let rule = f.get("rule").and_then(Json::as_str).expect("rule");
        assert!(
            cisa_analyze::ANALYZE_RULES.contains(&rule),
            "unknown rule {rule}"
        );
    }

    // Input validation: missing feature set, unknown phase.
    let (status, _) = request(
        server.addr(),
        "POST",
        "/v1/analyze",
        format!(r#"{{"phase":"{phase}"}}"#),
    );
    assert_eq!(status, 400);
    let (status, _) = request(
        server.addr(),
        "POST",
        "/v1/analyze",
        r#"{"phase":"nope","feature_set":"x86-64D-64W-P"}"#,
    );
    assert_eq!(status, 404);
    let (status, _) = request(server.addr(), "GET", "/v1/analyze", "");
    assert_eq!(status, 405);
}
