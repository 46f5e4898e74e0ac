//! # cisa-workloads: benchmark models, IR generation, traces, SimPoint
//!
//! The paper evaluates on 8 SPEC CPU2006 benchmarks broken into 49
//! SimPoint phases. SPEC is proprietary, so this crate substitutes
//! *synthetic characteristic models*: each benchmark is a parameter
//! block ([`benchmarks::PhaseSpec`]) reproducing the properties the
//! paper attributes to it (hmmer's register pressure, sjeng's irregular
//! branches, lbm's vectorizable FP streams, mcf's pointer chasing), and
//! the [`generator`] turns each phase into seeded IR for the compiler.
//!
//! [`TraceArena`] expands compiled code into one dynamic micro-op trace
//! (memory addresses from the locality profile, branch outcomes from
//! the behaviour annotations), stored as packed columns. It is the only
//! trace form outside this crate: the probe, the cycle-level simulator
//! and the experiment binaries all read its columns. [`simpoint`]
//! implements the BBV + k-means phase analysis methodology.

#![warn(missing_docs)]

pub mod arena;
pub mod benchmarks;
pub mod generator;
pub mod simpoint;
mod trace;

pub use arena::TraceArena;
pub use benchmarks::{all_benchmarks, all_phases, benchmark, Benchmark, BranchStyle, PhaseSpec};
pub use generator::generate;
pub use trace::TraceParams;
