//! # cisa-sim: trace-driven cycle-level core models
//!
//! The gem5 stand-in: out-of-order and in-order pipeline timing models
//! that read the packed columns of a `cisa-workloads` `TraceArena`
//! (one micro-op trace, materialized once), with real branch
//! predictors (2-level local, gshare, tournament), a set-associative
//! L1I/L1D/shared-L2 hierarchy, and the decode-engine model of
//! `cisa-decode` (micro-op cache, decode slots, macro-fusion). The
//! decode frontend is functional, so every simulation first captures
//! its decode-supply decisions ([`SupplyTrace`]) and the timing loop
//! replays them; cores sharing a decoder can share one capture.
//!
//! The simulator produces [`SimResult`]s whose [`Activity`] counters
//! feed the McPAT-style power model in `cisa-power`.

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod pipeline;
pub mod predictor;

pub use cache::{Cache, Hierarchy, MemLatency, StreamPrefetcher};
pub use config::{CoreConfig, ExecSemantics, WindowConfig};
pub use pipeline::{
    simulate, simulate_shared_frontend, simulate_with_prefetcher, Activity, SimResult,
    StallBreakdown, SupplyTrace, REDIRECT_DECODE_EXTRA, REDIRECT_REFILL,
};
pub use predictor::{BranchPredictor, Gshare, PredictorKind, Tournament, TwoLevelLocal};
