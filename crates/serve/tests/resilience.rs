//! Resilience acceptance on a live loopback server: load shedding,
//! circuit breaking, structured timeouts, drain-on-shutdown.
//!
//! Each test builds its own [`ServerState`] (lifecycle and breaker are
//! per-state) over one shared, expensively-built performance table.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cisa_explore::{DesignSpace, PerfTable, ShardedProfileStore, SweepRunner};
use cisa_serve::json::{parse, Json};
use cisa_serve::{ServeConfig, Server, ServerState};
use cisa_workloads::PhaseSpec;

fn fixture() -> &'static (PerfTable, Vec<PhaseSpec>) {
    static FIXTURE: OnceLock<(PerfTable, Vec<PhaseSpec>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let space = DesignSpace::new();
        let phases: Vec<PhaseSpec> = cisa_workloads::all_phases().into_iter().take(1).collect();
        let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
        (table, phases)
    })
}

fn make_server(config: ServeConfig) -> (Server, Arc<ServerState>) {
    let (table, phases) = fixture();
    let state = Arc::new(ServerState::from_table(
        DesignSpace::new(),
        table,
        phases.clone(),
        ShardedProfileStore::new(None),
        config,
    ));
    let server = Server::start("127.0.0.1:0", Arc::clone(&state)).expect("bind loopback");
    (server, state)
}

/// One complete HTTP response read off a keep-alive stream:
/// `(status, headers, body)`.
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
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .and_then(|v| v.parse().ok())?;
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

fn send_get(stream: &mut TcpStream, target: &str) -> std::io::Result<()> {
    stream.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n").as_bytes(),
    )
}

fn post_affinity(addr: std::net::SocketAddr, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /v1/affinity HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    read_reply(&mut stream).expect("complete response")
}

fn counter(name: &str) -> u64 {
    cisa_obs::snapshot().counter(name)
}

#[test]
fn shutdown_under_load_completes_in_flight_requests() {
    let (mut server, _state) = make_server(ServeConfig {
        workers: 3,
        idle_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // A client caught mid-body when the drain starts.
    let mut slow = TcpStream::connect(addr).expect("connect");
    let body = r#"{"phase":"BOGUS"}"#; // 404 is fine; completeness is the point
    slow.write_all(
        format!(
            "POST /v1/affinity HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .expect("head");
    slow.write_all(&body.as_bytes()[..5]).expect("half body");
    // Let a worker pick the connection up and block mid-body.
    std::thread::sleep(Duration::from_millis(150));

    // Keep-alive clients hammering /healthz until drained away.
    let replies: Arc<std::sync::Mutex<Vec<(u16, String)>>> = Arc::default();
    let mut clients = Vec::new();
    for _ in 0..2 {
        let replies = Arc::clone(&replies);
        clients.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            loop {
                if send_get(&mut stream, "/healthz").is_err() {
                    return;
                }
                match read_reply(&mut stream) {
                    Some((status, head, body)) => {
                        replies
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((status, body));
                        if head.to_ascii_lowercase().contains("connection: close") {
                            return;
                        }
                    }
                    None => return,
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(100));

    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    std::thread::sleep(Duration::from_millis(100));
    // Finish the in-flight body mid-drain: the worker entered the read
    // before the drain, so the request must complete, not be cut.
    slow.write_all(&body.as_bytes()[5..]).expect("rest of body");
    let (status, _, resp_body) = read_reply(&mut slow).expect("in-flight request completes");
    assert_eq!(status, 404, "{resp_body}");
    assert!(
        resp_body.contains("unknown_phase"),
        "complete body: {resp_body}"
    );

    let server = shutdown.join().expect("shutdown returns");
    for c in clients {
        c.join().expect("client thread");
    }
    // Every keep-alive response that was sent arrived complete.
    let replies = replies.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!replies.is_empty(), "background clients got responses");
    for (status, body) in replies.iter() {
        assert_eq!(*status, 200);
        assert!(parse(body).is_ok(), "complete JSON body: {body}");
    }
    // The drained listener refuses new connections.
    assert!(
        TcpStream::connect(addr).is_err(),
        "post-shutdown connections are refused"
    );
    drop(server);
}

#[test]
fn drain_flips_healthz_and_closes_keep_alive() {
    let (mut server, state) = make_server(ServeConfig {
        workers: 2,
        idle_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    send_get(&mut stream, "/healthz").expect("send");
    let (status, _, body) = read_reply(&mut stream).expect("reply");
    assert_eq!(status, 200);
    let v = parse(&body).expect("json");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("breaker").and_then(Json::as_str), Some("closed"));

    let shutdown = std::thread::spawn(move || server.shutdown());
    // Lifecycle flips synchronously at the start of shutdown(); wait
    // for it so the next response must be a drain response.
    let flip = Instant::now();
    while state.lifecycle() == cisa_serve::Lifecycle::Running {
        assert!(flip.elapsed() < Duration::from_secs(2), "lifecycle flips");
        std::thread::sleep(Duration::from_millis(5));
    }
    send_get(&mut stream, "/healthz").expect("send mid-drain");
    let (status, head, body) = read_reply(&mut stream).expect("mid-drain reply");
    assert_eq!(status, 200);
    let v = parse(&body).expect("json");
    assert_eq!(
        v.get("status").and_then(Json::as_str),
        Some("draining"),
        "{body}"
    );
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "drain closes keep-alive connections: {head}"
    );
    shutdown.join().expect("shutdown returns");
    assert_eq!(state.lifecycle(), cisa_serve::Lifecycle::Stopped);
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    let (server, _state) = make_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        idle_timeout: Duration::from_secs(2),
        shed_retry_after_s: 7,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let shed_before = counter("serve/resilience/shed");

    // A pins the only worker (half-written request), B fills the queue.
    let mut a = TcpStream::connect(addr).expect("A connects");
    a.write_all(b"POST /v1/affinity HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n")
        .expect("A head");
    std::thread::sleep(Duration::from_millis(150));
    let mut b = TcpStream::connect(addr).expect("B connects");
    std::thread::sleep(Duration::from_millis(150));

    // C finds the queue full and is shed by the acceptor.
    let mut c = TcpStream::connect(addr).expect("C connects");
    let (status, head, body) = read_reply(&mut c).expect("C gets a response, not a hang");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("overloaded"), "{body}");
    assert!(
        head.to_ascii_lowercase().contains("retry-after: 7"),
        "shed response carries Retry-After: {head}"
    );
    assert!(counter("serve/resilience/shed") > shed_before);

    // A and B still complete normally: shedding is strictly overflow.
    a.write_all(b"{}").expect("A body");
    let (status, _, _) = read_reply(&mut a).expect("A completes");
    assert_eq!(status, 400); // {} lacks phase/spec; any structured answer is fine
    send_get(&mut b, "/healthz").expect("B sends");
    let (status, _, _) = read_reply(&mut b).expect("B completes");
    assert_eq!(status, 200);
    drop(server);
}

#[test]
fn breaker_opens_after_failures_recovers_via_half_open() {
    let (server, state) = make_server(ServeConfig {
        workers: 2,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let opened_before = counter("serve/resilience/breaker_open");
    let rejected_before = counter("serve/resilience/breaker_reject");

    // Two refinements that cannot meet their deadlines trip the
    // breaker (threshold 2). Distinct specs: failed rows are not
    // cached, but distinct fingerprints keep the tiers honest.
    for seed in [9001u64, 9002] {
        let body = format!(r#"{{"spec":{{"benchmark":"mcf","seed":{seed}}},"deadline_ms":10}}"#);
        let (status, _, body) = post_affinity(addr, &body);
        assert_eq!(status, 504, "deadline-starved refinement: {body}");
    }
    assert_eq!(state.breaker().state_name(), "open");
    assert!(counter("serve/resilience/breaker_open") > opened_before);

    // While open: refinements are rejected instantly with 503 +
    // Retry-After...
    let (status, head, body) = post_affinity(addr, r#"{"spec":{"benchmark":"mcf","seed":9003}}"#);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("refine_unavailable"), "{body}");
    assert!(
        head.to_ascii_lowercase().contains("retry-after:"),
        "breaker rejection carries Retry-After: {head}"
    );
    assert!(counter("serve/resilience/breaker_reject") > rejected_before);

    // ...but the pinned tier answers as if nothing happened.
    let phase = fixture().1[0].name();
    let (status, _, body) = post_affinity(addr, &format!(r#"{{"phase":"{phase}"}}"#));
    assert_eq!(status, 200, "pinned tier ignores the breaker: {body}");
    // And /healthz reports the open breaker.
    let mut s = TcpStream::connect(addr).expect("connect");
    send_get(&mut s, "/healthz").expect("send");
    let (_, _, health) = read_reply(&mut s).expect("healthz");
    assert_eq!(
        parse(&health)
            .expect("json")
            .get("breaker")
            .and_then(Json::as_str),
        Some("open")
    );

    // After the cooldown, one half-open trial that succeeds closes the
    // breaker again.
    std::thread::sleep(Duration::from_millis(450));
    let (status, _, body) = post_affinity(addr, r#"{"spec":{"benchmark":"mcf","seed":9004}}"#);
    assert_eq!(status, 200, "half-open trial refines: {body}");
    assert_eq!(state.breaker().state_name(), "closed");
    drop(server);
}

#[test]
fn read_timeouts_get_structured_408_with_stage() {
    let (server, _state) = make_server(ServeConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let t408_before = counter("serve/resilience/timeout_408");

    // Idle connection: never sends a byte.
    let mut idle = TcpStream::connect(addr).expect("connect");
    let (status, _, body) = read_reply(&mut idle).expect("structured 408, not a silent drop");
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("request_timeout"), "{body}");
    assert!(body.contains("idle stage"), "{body}");

    // Stalled mid-head.
    let mut stuck = TcpStream::connect(addr).expect("connect");
    stuck.write_all(b"POST /v1/aff").expect("partial head");
    let (status, _, body) = read_reply(&mut stuck).expect("structured 408");
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("head stage"), "{body}");

    assert!(counter("serve/resilience/timeout_408") >= t408_before + 2);
    drop(server);
}

#[test]
fn slow_loris_is_bounded_by_the_read_budget() {
    let (server, _state) = make_server(ServeConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(400),
        read_budget: Duration::from_millis(600),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Trickle one byte per 100 ms: each read beats the 400 ms idle
    // timeout, so only the total budget can stop this client.
    let mut loris = TcpStream::connect(addr).expect("connect");
    let head = b"POST /v1/affinity HTTP/1.1\r\n";
    let started = Instant::now();
    let mut sent = 0usize;
    let reply = loop {
        if sent < head.len() {
            if loris.write_all(&head[sent..=sent]).is_err() {
                break None; // server already gave up on us
            }
            sent += 1;
        }
        loris
            .set_read_timeout(Some(Duration::from_millis(1)))
            .expect("cfg");
        let mut probe = [0u8; 1];
        if loris.peek(&mut probe).is_ok() {
            loris.set_read_timeout(None).expect("cfg");
            break read_reply(&mut loris);
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "server must cut a slow-loris client off"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    if let Some((status, _, body)) = reply {
        assert_eq!(status, 408, "{body}");
        assert!(body.contains("head stage"), "{body}");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "read budget bounds the connection's lifetime"
    );
    drop(server);
}
