//! Affinity-as-a-service: an HTTP query engine over the
//! composite-ISA design space.
//!
//! This crate turns the batch exploration pipeline into an online
//! service. A zero-dependency HTTP/1.1 server answers the question the
//! paper's scheduler keeps asking — *"which feature set should this
//! phase run on, under this power/area budget?"* — from a pre-built
//! [`PerfTable`](cisa_explore::PerfTable), and refines fingerprints
//! the table has never seen through the fused probe path, online,
//! without ever blocking the serving threads on a poisoned request.
//!
//! # Endpoints
//!
//! | Route | Method | Answer |
//! |---|---|---|
//! | `/v1/affinity` | POST | ranked feature sets for a phase under a budget |
//! | `/v1/designs` | GET | filtered slices of the 4,680-design table |
//! | `/v1/metrics` | GET | the `cisa-obs` registry snapshot as JSON |
//! | `/healthz` | GET | liveness + table shape |
//!
//! `SERVICE.md` at the repo root is the full wire-format reference.
//!
//! # Module map
//!
//! | Module | Job |
//! |---|---|
//! | [`json`] | strict JSON parser + deterministic writer (bit-exact `f64` round trips) |
//! | [`http`] | request framing over `std::net` with head/body caps |
//! | [`state`] | design space, pinned rows, row LRU, refinement pool, circuit breaker |
//! | [`api`] | routing, request decoding, ranking, response rendering |
//! | [`server`] | acceptor + worker pool, bounded admission, watchdog, drain |
//!
//! # Answer tiers
//!
//! A `POST /v1/affinity` resolves through three tiers, cheapest first:
//! pinned rows reading one shared copy of the batch table taken at
//! startup (bit-identical to the batch pipeline by construction), a
//! sharded LRU of rows
//! refined earlier, and finally online refinement — compile the spec
//! for all feature sets on a bounded, panic-isolated pool, probe each
//! distinct compilation once (the batch sweep's
//! [`ProbeDedup`](cisa_explore::ProbeDedup)), persist every feature
//! set's profile in a two-tier
//! [`ShardedProfileStore`](cisa_explore::ShardedProfileStore), and
//! fill the full row as a one-phase
//! [`PerfTable`](cisa_explore::PerfTable). The response's `source` field reports
//! which tier answered.
//!
//! # Resilience
//!
//! The serving stack protects itself from overload and partial
//! failure rather than assuming a polite world:
//!
//! - **Load shedding** — accepted connections queue on a *bounded*
//!   channel; when it fills, the acceptor sheds with a structured
//!   429 + `Retry-After` instead of queueing unboundedly.
//! - **Circuit breaker** — consecutive refinement failures open a
//!   breaker over the online-refinement tier (503 + `Retry-After`
//!   while open, half-open trials after a cooldown). Pinned and cached
//!   answers never touch it.
//! - **Read budgets** — a total per-request read budget defeats
//!   slow-loris clients the per-read idle timeout cannot; timeouts get
//!   a structured 408 naming the read stage, never a silent drop.
//! - **Watchdog** — a supervisor respawns any worker or acceptor
//!   thread that panics.
//! - **Graceful drain** — shutdown flips `/healthz` to `draining`,
//!   finishes in-flight and queued requests, then closes the listener.
//!
//! Every event surfaces as a `serve/resilience/*` counter (see
//! `METRICS.md`), and the chaos suite in `tests/chaos.rs` drives the
//! whole stack against a seeded
//! [`FaultPlan`](cisa_explore::FaultPlan).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod http;
pub mod json;
pub mod server;
pub mod state;

pub use api::Reply;
pub use http::ReadStage;
pub use server::Server;
pub use state::{
    AffinityRow, CircuitBreaker, Lifecycle, RowError, RowSource, ServeConfig, ServerState,
};
