//! The transport loop: accept, keep-alive, bounded admission, worker
//! pool, watchdog, per-request metrics, graceful drain and shutdown.
//!
//! One acceptor thread feeds connections to `config.workers` worker
//! threads over a *bounded* channel (`config.queue_capacity`); when the
//! queue is full further connections are shed immediately with a
//! structured 429 + `Retry-After` instead of piling up behind a slow
//! tier. A supervisor thread watches the acceptor and every worker and
//! respawns any that panic, so one poisoned request cannot bleed the
//! pool dry. Shutdown is a drain: `/healthz` flips to `draining`,
//! in-flight and already-queued requests finish, keep-alive
//! connections are closed at the next request boundary, and only then
//! do the threads join and the listener close.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api;
use crate::http::{read_request, write_response, ReadStage, RecvError};
use crate::state::{Lifecycle, ServerState};

/// How often the supervisor checks its threads for panics.
const WATCHDOG_POLL: Duration = Duration::from_millis(15);
/// Write timeout for shed (429) responses: an overloaded server must
/// not block its acceptor on a slow client's receive window.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// A running affinity server.
///
/// Dropping the handle (or calling [`Server::shutdown`]) drains
/// in-flight work and joins every thread.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    supervisor: Option<JoinHandle<()>>,
    state: Arc<ServerState>,
}

/// Everything a worker thread needs, bundled for respawning.
#[derive(Clone)]
struct WorkerCtx {
    rx: Arc<Mutex<Receiver<TcpStream>>>,
    state: Arc<ServerState>,
}

/// Everything the acceptor thread needs, bundled for respawning.
#[derive(Clone)]
struct AcceptorCtx {
    listener: Arc<TcpListener>,
    stop: Arc<AtomicBool>,
    tx: SyncSender<TcpStream>,
    idle: Duration,
    retry_after_s: u64,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `state` in background threads.
    pub fn start(addr: &str, state: Arc<ServerState>) -> std::io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(addr)?);
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(state.config.queue_capacity.max(1));
        let worker_ctx = WorkerCtx {
            rx: Arc::new(Mutex::new(rx)),
            state: Arc::clone(&state),
        };
        let acceptor_ctx = AcceptorCtx {
            listener,
            stop: Arc::clone(&stop),
            tx,
            idle: state.config.idle_timeout,
            retry_after_s: state.config.shed_retry_after_s,
        };

        let n_workers = state.config.workers.max(1);
        let sup_stop = Arc::clone(&stop);
        let sup_state = Arc::clone(&state);
        let supervisor = std::thread::Builder::new()
            .name("serve-supervisor".to_string())
            .spawn(move || {
                supervise(
                    local,
                    n_workers,
                    sup_stop,
                    sup_state,
                    worker_ctx,
                    acceptor_ctx,
                )
            })
            .expect("spawning the supervisor thread");

        Ok(Server {
            addr: local,
            stop,
            supervisor: Some(supervisor),
            state,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins the drain (`/healthz` flips to `draining`, new work is
    /// refused), waits for in-flight and queued requests to finish,
    /// joins all threads and closes the listener. Idempotent.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            self.state.set_lifecycle(Lifecycle::Draining);
            // The acceptor blocks in accept(); poke it with a throwaway
            // connection so it observes the stop flag.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The watchdog loop: respawn panicked threads until shutdown, then
/// orchestrate the drain.
fn supervise(
    addr: SocketAddr,
    n_workers: usize,
    stop: Arc<AtomicBool>,
    state: Arc<ServerState>,
    worker_ctx: WorkerCtx,
    acceptor_ctx: AcceptorCtx,
) {
    let mut acceptor = spawn_acceptor(acceptor_ctx.clone());
    let mut workers: Vec<JoinHandle<()>> = (0..n_workers)
        .map(|i| spawn_worker(i, worker_ctx.clone()))
        .collect();

    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(WATCHDOG_POLL);
        if acceptor.is_finished() && !stop.load(Ordering::SeqCst) {
            if acceptor.join().is_err() {
                cisa_obs::counter("serve/resilience/respawn_acceptor", 1);
            }
            acceptor = spawn_acceptor(acceptor_ctx.clone());
        }
        for (i, slot) in workers.iter_mut().enumerate() {
            if slot.is_finished() && !stop.load(Ordering::SeqCst) {
                let dead = std::mem::replace(slot, spawn_worker(i, worker_ctx.clone()));
                if dead.join().is_err() {
                    cisa_obs::counter("serve/resilience/respawn_worker", 1);
                }
            }
        }
    }

    // Drain. The acceptor may have been respawned after the shutdown
    // poke; poke again so it cannot be stuck in accept().
    let _ = TcpStream::connect(addr);
    let _ = acceptor.join();
    // Dropping the last sender ends the workers' queue: std::mpsc
    // still delivers already-queued connections first, so accepted
    // work is served, not dropped.
    drop(acceptor_ctx);
    for w in workers {
        let _ = w.join();
    }
    state.set_lifecycle(Lifecycle::Stopped);
}

fn spawn_worker(i: usize, ctx: WorkerCtx) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("serve-worker-{i}"))
        .spawn(move || loop {
            let conn = {
                let guard = ctx.rx.lock().unwrap_or_else(|e| e.into_inner());
                guard.recv()
            };
            match conn {
                Ok(stream) => serve_connection(stream, &ctx.state),
                Err(_) => return, // all senders gone: shutdown
            }
        })
        .expect("spawning a worker thread")
}

fn spawn_acceptor(ctx: AcceptorCtx) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("serve-acceptor".to_string())
        .spawn(move || {
            for conn in ctx.listener.incoming() {
                if ctx.stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                // A read timeout bounds how long one read(2) may stall
                // on an idle keep-alive connection.
                let _ = stream.set_read_timeout(Some(ctx.idle));
                let _ = stream.set_nodelay(true);
                match ctx.tx.try_send(stream) {
                    Ok(()) => {}
                    // Queue full: shed instead of queueing unboundedly.
                    Err(TrySendError::Full(stream)) => shed(stream, ctx.retry_after_s),
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
        })
        .expect("spawning the acceptor thread")
}

/// Sheds one connection with a structured 429 + `Retry-After`. Runs on
/// the acceptor thread, so the write is strictly time-boxed.
fn shed(mut stream: TcpStream, retry_after_s: u64) {
    cisa_obs::counter("serve/resilience/shed", 1);
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let (status, body) = api::error_response(
        429,
        "overloaded",
        "the server is at capacity; retry after a backoff",
    );
    let _ = write_response(&mut stream, status, &body, true, Some(retry_after_s));
    let _ = stream.shutdown(Shutdown::Both);
}

/// Sends a terminal error response, then drains what the client is
/// still sending (bounded) so the close is a clean FIN rather than an
/// RST that could destroy the response in flight.
fn reject(stream: &mut TcpStream, status: u16, code: &str, message: &str) {
    let (status, body) = api::error_response(status, code, message);
    let _ = write_response(stream, status, &body, true, None);
    let _ = stream.shutdown(Shutdown::Write);
    let mut buf = [0u8; 4096];
    let mut budget: usize = 1 << 20;
    while budget > 0 {
        match std::io::Read::read(stream, &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n.min(budget),
        }
    }
}

/// Serves one connection's keep-alive request sequence.
fn serve_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    loop {
        // During a drain, wait only `drain_grace` for the next
        // pipelined request, and close after answering it.
        let draining = state.lifecycle() != Lifecycle::Running;
        let budget = if draining {
            let _ = stream.set_read_timeout(Some(state.config.drain_grace));
            state.config.drain_grace
        } else {
            state.config.read_budget
        };
        let started = Instant::now();
        let req = match read_request(&mut stream, budget) {
            Ok(r) => r,
            Err(RecvError::Closed) => return,
            Err(RecvError::TimedOut(stage)) => {
                if draining && stage == ReadStage::Idle {
                    // Nothing pipelined: a quiet close, not a client
                    // error.
                    cisa_obs::counter("serve/resilience/drain_close", 1);
                    return;
                }
                // Structured 408 rather than a silent close: a client
                // mid-retry-loop needs to see *why* the connection
                // died, and operators need it counted.
                cisa_obs::counter("serve/resilience/timeout_408", 1);
                cisa_obs::counter(&format!("serve/resilience/timeout_408_{}", stage.name()), 1);
                let (status, body) = api::error_response(
                    408,
                    "request_timeout",
                    &format!("timed out reading the request ({} stage)", stage.name()),
                );
                let _ = write_response(&mut stream, status, &body, true, None);
                return;
            }
            Err(RecvError::Io(_)) => return,
            Err(RecvError::HeadTooLarge) => {
                reject(
                    &mut stream,
                    413,
                    "head_too_large",
                    "request head exceeds 16 KiB",
                );
                return;
            }
            Err(RecvError::BodyTooLarge) => {
                reject(
                    &mut stream,
                    413,
                    "body_too_large",
                    "request body exceeds 64 KiB",
                );
                return;
            }
            Err(RecvError::Malformed(why)) => {
                reject(&mut stream, 400, "malformed_request", why);
                return;
            }
        };

        // Chaos: the fault plan may demand this worker die right here,
        // exercising the supervisor's respawn path.
        let seq = state.next_request_seq();
        if let Some(plan) = &state.config.chaos {
            if plan.should_panic_request(seq) {
                cisa_obs::counter("serve/resilience/chaos_panic", 1);
                panic!("chaos plan: forced worker panic on request {seq}");
            }
        }

        let _span = cisa_obs::root_span("serve/request");
        cisa_obs::counter("serve/request", 1);
        cisa_obs::hist("serve/body_bytes", req.body.len() as u64);
        let reply = api::handle(state, &req);
        cisa_obs::counter(&format!("serve/status/{}", reply.status), 1);
        let latency = started.elapsed().as_nanos() as u64;
        cisa_obs::hist("serve/latency_ns", latency);

        // Re-read the lifecycle: a drain that began while this request
        // was in flight must still close the connection now.
        let close = req.wants_close() || draining || state.lifecycle() != Lifecycle::Running;
        if write_response(
            &mut stream,
            reply.status,
            &reply.body,
            close,
            reply.retry_after,
        )
        .is_err()
            || close
        {
            return;
        }
    }
}
