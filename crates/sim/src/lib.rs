//! # cisa-sim: trace-driven cycle-level core models
//!
//! The gem5 stand-in: out-of-order and in-order pipeline timing models
//! driven by the micro-op traces of `cisa-workloads`, with real branch
//! predictors (2-level local, gshare, tournament), a set-associative
//! L1I/L1D/shared-L2 hierarchy, and the decode-engine model of
//! `cisa-decode` (micro-op cache, decode slots, macro-fusion).
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
