//! Shared server state: the design space, the affinity rows, the
//! two-tier probe store, and the bounded online-refinement pool.
//!
//! A server answers from three tiers, cheapest first:
//!
//! 1. **Pinned rows** — one affinity row per phase of the batch-built
//!    [`PerfTable`] at startup, all reading one shared copy of it.
//!    Never evicted; answers from this tier are bit-identical to the
//!    batch pipeline by construction (the entries are read, not
//!    recomputed).
//! 2. **The row LRU** — a [`ShardedLru`] of rows refined online for
//!    fingerprints the batch table has never seen.
//! 3. **Online refinement** — the fused probe path on a bounded pool
//!    with panic isolation ([`par_map_isolated`]), one probe per
//!    distinct compilation of the spec: feature sets that compile it
//!    to identical code share a probe through a per-refinement
//!    [`ProbeDedup`], the batch sweep's dedup. Every feature set's
//!    profile persists through a [`ShardedProfileStore`], so a
//!    re-asked fingerprint — even after row eviction or a server
//!    restart — refines without compiling or probing. The refined row
//!    is a one-phase [`PerfTable`] filled by the batch table's own
//!    fill, so the server keeps no model code of its own.

use std::collections::HashMap;
use std::slice;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cisa_explore::cache::fnv1a;
use cisa_explore::runner::par_map_isolated;
use cisa_explore::{
    DesignId, DesignSpace, FaultPlan, PerfTable, ProbeDedup, ShardedLru, ShardedProfileStore,
    SweepRunner,
};
use cisa_isa::FeatureSet;
use cisa_workloads::PhaseSpec;

pub use cisa_explore::interval::PhasePerf;

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// HTTP worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Threads one refinement sweep spreads its probes over.
    pub refine_threads: usize,
    /// Refinement sweeps allowed to run concurrently; further requests
    /// wait (up to their deadline) for a permit.
    pub max_concurrent_refines: usize,
    /// Default per-request deadline when the request names none.
    pub default_deadline: Duration,
    /// Socket idle timeout for keep-alive connections.
    pub idle_timeout: Duration,
    /// Shards in the refined-row LRU.
    pub row_shards: usize,
    /// Rows per shard in the refined-row LRU.
    pub row_capacity_per_shard: usize,
    /// Accepted connections queued for a worker; when full, further
    /// connections are shed with a structured 429 instead of piling up
    /// unboundedly behind a slow tier.
    pub queue_capacity: usize,
    /// Hard per-request budget for the refinement tier. The effective
    /// refinement deadline is `min(request deadline, now + budget)`, so
    /// a generous client deadline cannot pin a refinement permit for
    /// minutes.
    pub refine_budget: Duration,
    /// Consecutive refinement failures/timeouts that trip the circuit
    /// breaker open.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects refinements before admitting a
    /// half-open trial request.
    pub breaker_cooldown: Duration,
    /// `Retry-After` seconds suggested on shed (429) and breaker-open
    /// (503) responses.
    pub shed_retry_after_s: u64,
    /// During drain, how long a worker waits for one more pipelined
    /// request on a keep-alive connection before closing it.
    pub drain_grace: Duration,
    /// Total wall-clock budget for reading one request off the socket
    /// (slow-loris bound; the idle timeout only bounds each read).
    pub read_budget: Duration,
    /// Deterministic fault injection for chaos tests (None in
    /// production).
    pub chaos: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            refine_threads: cisa_explore::threads(),
            max_concurrent_refines: 2,
            default_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            row_shards: 8,
            row_capacity_per_shard: 64,
            queue_capacity: 128,
            refine_budget: Duration::from_secs(10),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(2),
            shed_retry_after_s: 1,
            drain_grace: Duration::from_millis(50),
            read_budget: Duration::from_secs(10),
            chaos: None,
        }
    }
}

/// Where the server is in its life: accepting work, finishing in-flight
/// work, or stopped. Reported by `/healthz` so load balancers stop
/// routing to a draining instance before its listener goes away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Accepting and serving requests normally.
    Running,
    /// Shutdown has begun: in-flight requests finish, new work is
    /// refused, `/healthz` reports `draining`.
    Draining,
    /// All workers have exited; the listener is closed.
    Stopped,
}

impl Lifecycle {
    /// Stable lowercase name used in `/healthz` responses.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Lifecycle::Running => "ok",
            Lifecycle::Draining => "draining",
            Lifecycle::Stopped => "stopped",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => Lifecycle::Running,
            1 => Lifecycle::Draining,
            _ => Lifecycle::Stopped,
        }
    }
}

/// The circuit breaker's decision for one refinement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Proceed with the refinement (breaker closed).
    Admit,
    /// Proceed as the half-open trial: this request's outcome decides
    /// whether the breaker closes or re-opens, so every exit path must
    /// report back.
    Trial,
    /// The breaker is open; reject without spending any refinement
    /// work, suggesting the client retry after the cooldown.
    Reject,
}

/// Internal breaker state machine (guarded by one mutex; transitions
/// are cheap and refinements are seconds-long, so contention is nil).
#[derive(Debug)]
enum BreakerInner {
    /// Healthy; counts consecutive failures toward the threshold.
    Closed { consecutive_failures: u32 },
    /// Tripped; rejects refinements until the cooldown elapses.
    Open { until: Instant },
    /// Cooldown elapsed; one trial refinement is in flight. Success
    /// closes the breaker, failure re-opens it.
    HalfOpen,
}

/// A circuit breaker over the online-refinement tier.
///
/// Refinement is the one tier that can fail repeatedly and expensively
/// (poisoned probes, saturated permit pool): after
/// [`ServeConfig::breaker_threshold`] consecutive failures the breaker
/// opens and refinement requests are rejected instantly with a 503 +
/// `Retry-After` instead of each burning a deadline's worth of work.
/// After [`ServeConfig::breaker_cooldown`] one half-open trial request
/// is admitted; its outcome decides between closing and re-opening.
/// Pinned-table and row-cache answers never consult the breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    inner: Mutex<BreakerInner>,
    threshold: u32,
    cooldown: Duration,
}

impl CircuitBreaker {
    fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            inner: Mutex::new(BreakerInner::Closed {
                consecutive_failures: 0,
            }),
            threshold: threshold.max(1),
            cooldown,
        }
    }

    /// Stable state name (`closed` / `open` / `half_open`) reported by
    /// `/healthz`.
    pub fn state_name(&self) -> &'static str {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match *inner {
            BreakerInner::Closed { .. } => "closed",
            BreakerInner::Open { .. } => "open",
            BreakerInner::HalfOpen => "half_open",
        }
    }

    /// Decides whether a refinement may proceed, transitioning
    /// Open -> HalfOpen when the cooldown has elapsed.
    fn try_admit(&self) -> Admission {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match *inner {
            BreakerInner::Closed { .. } => Admission::Admit,
            BreakerInner::Open { until } => {
                if Instant::now() >= until {
                    *inner = BreakerInner::HalfOpen;
                    cisa_obs::counter("serve/resilience/breaker_half_open", 1);
                    Admission::Trial
                } else {
                    Admission::Reject
                }
            }
            // One trial at a time: the trial request moved Open ->
            // HalfOpen; everyone else waits for its verdict.
            BreakerInner::HalfOpen => Admission::Reject,
        }
    }

    fn on_success(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if !matches!(
            *inner,
            BreakerInner::Closed {
                consecutive_failures: 0
            }
        ) {
            if !matches!(*inner, BreakerInner::Closed { .. }) {
                cisa_obs::counter("serve/resilience/breaker_close", 1);
            }
            *inner = BreakerInner::Closed {
                consecutive_failures: 0,
            };
        }
    }

    fn on_failure(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let trip = match *inner {
            BreakerInner::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.threshold {
                    true
                } else {
                    *inner = BreakerInner::Closed {
                        consecutive_failures: n,
                    };
                    false
                }
            }
            // A failed half-open trial re-opens immediately.
            BreakerInner::HalfOpen => true,
            BreakerInner::Open { .. } => false,
        };
        if trip {
            *inner = BreakerInner::Open {
                until: Instant::now() + self.cooldown,
            };
            cisa_obs::counter("serve/resilience/breaker_open", 1);
        }
    }
}

/// One phase's slice of the affinity table: a view of one phase row of
/// a [`PerfTable`], every (feature set, microarchitecture)
/// performance/energy prediction.
#[derive(Debug)]
pub struct AffinityRow {
    /// Phase name (`benchmark.pN`).
    pub phase: String,
    /// The full generation fingerprint the row is keyed on.
    pub fingerprint: String,
    table: Arc<PerfTable>,
    row: usize,
}

impl AffinityRow {
    /// The prediction for one design point, bit-identical to the
    /// viewed table's `get(row, id)`.
    pub fn perf(&self, id: DesignId) -> PhasePerf {
        self.table.get(self.row, id)
    }
}

/// How an affinity answer was produced (reported in responses and
/// asserted by tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSource {
    /// Read from the batch-built table loaded at startup.
    Pinned,
    /// Refined online earlier and still resident in the row LRU.
    Cached,
    /// Refined online by this request.
    Refined,
}

impl RowSource {
    /// Stable lowercase name used in JSON responses.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RowSource::Pinned => "table",
            RowSource::Cached => "cached",
            RowSource::Refined => "refined",
        }
    }
}

/// A counting semaphore bounding concurrent refinement sweeps.
#[derive(Debug)]
struct Permits {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Permits {
    fn new(n: usize) -> Self {
        Permits {
            free: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    /// Acquires a permit, waiting at most until `deadline`. Returns
    /// false on deadline expiry.
    fn acquire(&self, deadline: Instant) -> bool {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *free > 0 {
                *free -= 1;
                return true;
            }
            let now = Instant::now();
            let Some(wait) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return false;
            };
            let (g, timeout) = self
                .cv
                .wait_timeout(free, wait)
                .unwrap_or_else(|e| e.into_inner());
            free = g;
            if timeout.timed_out() && *free == 0 {
                return false;
            }
        }
    }

    fn release(&self) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        *free += 1;
        self.cv.notify_one();
    }
}

/// Why an affinity row could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowError {
    /// The request's deadline expired before the row was ready.
    DeadlineExceeded,
    /// Refinement failed (poisoned probes exhausting their retries).
    RefineFailed(String),
    /// The refinement circuit breaker is open; retry after the
    /// suggested number of seconds.
    RefineUnavailable {
        /// Seconds the client should wait before retrying.
        retry_after_s: u64,
    },
}

type InflightCell = Arc<OnceLock<Result<Arc<AffinityRow>, RowError>>>;

/// Everything the request handlers share.
#[derive(Debug)]
pub struct ServerState {
    /// The 26 x 180 design space with per-design budgets.
    pub space: DesignSpace,
    /// The server's tuning knobs.
    pub config: ServeConfig,
    /// Known phases, preloaded as pinned rows.
    pub phases: Vec<PhaseSpec>,
    by_name: HashMap<String, usize>,
    // Row keys are the FNV-1a of the spec fingerprint, the hash the
    // profile cache addresses its entries by.
    pinned: HashMap<u64, Arc<AffinityRow>>,
    rows: ShardedLru<Arc<AffinityRow>>,
    store: ShardedProfileStore,
    inflight: Mutex<HashMap<u64, InflightCell>>,
    permits: Permits,
    breaker: CircuitBreaker,
    lifecycle: AtomicU8,
    request_seq: AtomicU64,
    started: Instant,
}

impl ServerState {
    /// Builds server state from a batch-built table: one pinned row per
    /// phase, each a view of one shared copy of `table` (bit-identical
    /// to `table.get`).
    ///
    /// `phases` must be the phase list the table was built for, in
    /// order.
    pub fn from_table(
        space: DesignSpace,
        table: &PerfTable,
        phases: Vec<PhaseSpec>,
        store: ShardedProfileStore,
        config: ServeConfig,
    ) -> Self {
        assert_eq!(table.n_phases, phases.len(), "table/phase list mismatch");
        let table = Arc::new(table.clone());
        let mut pinned = HashMap::new();
        let mut by_name = HashMap::new();
        for (pi, spec) in phases.iter().enumerate() {
            let fingerprint = spec.fingerprint();
            let row = Arc::new(AffinityRow {
                phase: spec.name(),
                fingerprint: fingerprint.clone(),
                table: Arc::clone(&table),
                row: pi,
            });
            pinned.insert(fnv1a(fingerprint.as_bytes()), row);
            by_name.insert(spec.name(), pi);
        }
        let rows = ShardedLru::new(config.row_shards, config.row_capacity_per_shard);
        let permits = Permits::new(config.max_concurrent_refines);
        let breaker = CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown);
        ServerState {
            space,
            config,
            phases,
            by_name,
            pinned,
            rows,
            store,
            inflight: Mutex::new(HashMap::new()),
            permits,
            breaker,
            lifecycle: AtomicU8::new(0),
            request_seq: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The refinement circuit breaker (state reported by `/healthz`).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The server's current lifecycle stage.
    pub fn lifecycle(&self) -> Lifecycle {
        Lifecycle::from_u8(self.lifecycle.load(Ordering::Acquire))
    }

    /// Moves the server to `stage` (called by the serving loop; state
    /// only ever advances Running -> Draining -> Stopped).
    pub(crate) fn set_lifecycle(&self, stage: Lifecycle) {
        self.lifecycle.store(stage as u8, Ordering::Release);
    }

    /// Total requests dispatched to handlers so far.
    pub(crate) fn requests_seen(&self) -> u64 {
        self.request_seq.load(Ordering::Relaxed)
    }

    /// Claims the next request sequence number (0-based; used by the
    /// chaos plan to target specific requests deterministically).
    pub(crate) fn next_request_seq(&self) -> u64 {
        self.request_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The known phase spec for `name`.
    pub(crate) fn phase_spec(&self, name: &str) -> Option<&PhaseSpec> {
        self.by_name.get(name).map(|&pi| &self.phases[pi])
    }

    /// Rows refined online and still resident.
    pub(crate) fn rows_resident(&self) -> usize {
        self.rows.len()
    }

    /// The probe store backing refinement.
    pub fn store(&self) -> &ShardedProfileStore {
        &self.store
    }

    /// Seconds since the state was created.
    pub(crate) fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Produces the affinity row for `spec`, cheapest tier first:
    /// pinned table rows, the refined-row LRU, then online refinement
    /// under `deadline`. Concurrent requests for the same fingerprint
    /// share one refinement.
    pub(crate) fn row_for_spec(
        &self,
        spec: &PhaseSpec,
        deadline: Instant,
    ) -> Result<(RowSource, Arc<AffinityRow>), RowError> {
        let fingerprint = spec.fingerprint();
        let key = fnv1a(fingerprint.as_bytes());
        if let Some(row) = self.pinned.get(&key) {
            cisa_obs::counter("serve/affinity/table_hit", 1);
            return Ok((RowSource::Pinned, Arc::clone(row)));
        }
        if let Some(row) = self.rows.get(key) {
            cisa_obs::counter("serve/affinity/row_hit", 1);
            return Ok((RowSource::Cached, row));
        }

        // Share one refinement per fingerprint: the first requester
        // initializes the cell, later ones block on it. The cell is
        // removed once filled, so a failed refinement can be retried
        // by a later request.
        let cell = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(inflight.entry(key).or_default())
        };
        let result = cell
            .get_or_init(|| {
                let r = self.refine(spec, &fingerprint, deadline);
                if let Ok(row) = &r {
                    self.rows.insert(key, Arc::clone(row));
                }
                r
            })
            .clone();
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        inflight.remove(&key);
        drop(inflight);
        result.map(|row| (RowSource::Refined, row))
    }

    /// Runs the online refinement: profile every feature set (through
    /// the two-tier store, one probe per distinct compilation) on the
    /// bounded pool, then evaluate the full row. Bit-identical to the batch path for the same spec.
    fn refine(
        &self,
        spec: &PhaseSpec,
        fingerprint: &str,
        deadline: Instant,
    ) -> Result<Arc<AffinityRow>, RowError> {
        let _span = cisa_obs::span("refine");
        cisa_obs::counter("serve/affinity/refine", 1);
        let admission = self.breaker.try_admit();
        if admission == Admission::Reject {
            cisa_obs::counter("serve/resilience/breaker_reject", 1);
            return Err(RowError::RefineUnavailable {
                retry_after_s: self.config.breaker_cooldown.as_secs().max(1),
            });
        }
        // A half-open trial owes the breaker a verdict on every exit
        // path: abandoning one mid-flight would wedge the breaker in
        // HalfOpen, rejecting refinements forever.
        let trial = admission == Admission::Trial;
        // The per-request deadline is capped by the server's own
        // refinement budget: a client asking for a five-minute deadline
        // must not pin a permit that long.
        let deadline = deadline.min(Instant::now() + self.config.refine_budget);
        if Instant::now() >= deadline {
            if trial {
                self.breaker.on_failure();
            }
            return Err(RowError::DeadlineExceeded);
        }
        if !self.permits.acquire(deadline) {
            cisa_obs::counter("serve/refine/permit_timeout", 1);
            // For a closed breaker a permit-wait timeout reflects load,
            // not tier health, and does not count toward the threshold.
            if trial {
                self.breaker.on_failure();
            }
            return Err(RowError::DeadlineExceeded);
        }
        let result = self.refine_locked(spec, fingerprint, deadline);
        self.permits.release();
        match &result {
            Ok(_) => self.breaker.on_success(),
            Err(_) => self.breaker.on_failure(),
        }
        result
    }

    fn refine_locked(
        &self,
        spec: &PhaseSpec,
        fingerprint: &str,
        deadline: Instant,
    ) -> Result<Arc<AffinityRow>, RowError> {
        const DEADLINE_MSG: &str = "deadline exceeded";
        let fss = &self.space.feature_sets;
        // Feature sets that compile this spec to identical code share
        // one probe; the map lives for this refinement only.
        let dedup = ProbeDedup::default();
        // One panic-isolated task per feature set; a poisoned probe
        // retries once and then fails the request, never the server.
        let (profiles, report) = par_map_isolated(
            fss,
            self.config.refine_threads,
            SweepRunner::DEFAULT_MAX_ATTEMPTS,
            |fs, _, _| {
                if Instant::now() >= deadline {
                    return Err(DEADLINE_MSG.to_string());
                }
                if let Some(p) = self.store.load(spec, *fs) {
                    return Ok(p);
                }
                let code = cisa_compile(spec, fs)?;
                let p = dedup.probe(spec, &code);
                self.store.store(spec, *fs, &p);
                Ok(p)
            },
        );
        if !report.failed.is_empty() {
            if report.failed.iter().any(|e| e.message == DEADLINE_MSG) {
                return Err(RowError::DeadlineExceeded);
            }
            cisa_obs::counter("serve/refine/failed", 1);
            return Err(RowError::RefineFailed(report.failed[0].message.clone()));
        }
        if Instant::now() >= deadline {
            return Err(RowError::DeadlineExceeded);
        }
        // The batch table's own fill, so refined rows stay bit-identical
        // to table-built rows (asserted by `tests/http_api.rs`,
        // `refined_row_is_bit_identical_to_batch_table`).
        let profiles: Vec<_> = profiles
            .into_iter()
            .map(|p| p.expect("clean report has all items"))
            .collect();
        let table = PerfTable::from_profile_grid(&self.space, slice::from_ref(spec), &profiles);
        Ok(Arc::new(AffinityRow {
            phase: spec.name(),
            fingerprint: fingerprint.to_string(),
            table: Arc::new(table),
            row: 0,
        }))
    }
}

/// Compiles a phase for one feature set, mapping failures to strings
/// (the refinement pool's error type).
fn cisa_compile(spec: &PhaseSpec, fs: &FeatureSet) -> Result<cisa_compiler::CompiledCode, String> {
    cisa_compiler::compile(
        &cisa_workloads::generate(spec),
        fs,
        &cisa_compiler::CompileOptions::default(),
    )
    .map_err(|e| format!("compiling {} for {fs}: {e}", spec.name()))
}
