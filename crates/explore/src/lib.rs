//! # cisa-explore: the design-space exploration engine
//!
//! Reproduces the paper's search: 26 feature sets x 180
//! microarchitectures = 4,680 single-core design points, evaluated over
//! 49 benchmark phases, then searched for optimal 4-core multicores
//! under peak-power and area budgets with four objectives
//! (multiprogrammed throughput, multiprogrammed EDP, single-thread
//! performance, single-thread EDP), for five system organizations
//! (homogeneous, single-ISA heterogeneous, x86-ized fixed sets, vendor
//! heterogeneous-ISA, fully composite).
//!
//! ## Module map
//!
//! | Module | Role |
//! |---|---|
//! | [`profile`] | High-fidelity probe of one (phase, feature set) pair |
//! | [`interval`] | Analytic interval model extrapolating a probe across microarchs |
//! | [`space`] | The 26 x 180 design space and its budgets |
//! | [`table`] | The evaluated (phase x design point) performance table |
//! | [`multicore`] | 4-core search: objectives, budgets, local search |
//! | [`systems`] | The paper's five system organizations + sensitivity study |
//! | [`runner`] | Parallel sweep execution, panic isolation, thread-pool sizing, probe dedup |
//! | [`cache`] | Content-addressed on-disk cache of probe results |
//! | [`store`] | Sharded in-memory LRU tier over the cache (serving reads) |
//! | [`faults`] | Deterministic, seed-replayable fault injection |
//!
//! The expensive half is probing; [`runner::SweepRunner`] parallelizes
//! it (`CISA_THREADS` override) and [`cache::ProfileCache`] persists it
//! across runs and binaries, with results bit-identical at any thread
//! count.

#![warn(missing_docs)]

pub mod cache;
pub mod faults;
pub mod interval;
pub mod multicore;
pub mod profile;
pub mod runner;
pub mod space;
pub mod store;
pub mod systems;
pub mod table;

pub use cache::{CrashPoint, ProfileCache, RecoveryReport};
pub use faults::{FaultDomain, FaultPlan, InjectedFault};
pub use interval::{evaluate, unit_energy, PhasePerf};
pub use multicore::{
    reference_design, search, Budget, CoreChoice, Evaluator, Objective, SearchResult,
};
pub use profile::{
    codegen_fingerprint, probe, probes_run, PhaseProfile, StoreForwardTable, PROBE_SEED, PROBE_UOPS,
};
pub use runner::{
    par_map, par_map_isolated, threads, ItemError, ProbeDedup, SweepReport, SweepRunner,
};
pub use space::{all_microarchs, DesignId, DesignSpace, MicroArch};
pub use store::{ShardedLru, ShardedProfileStore, StoreStats};
pub use systems::{
    candidates, constrained_candidates, search_system, sensitivity_constraints, SystemKind,
};
pub use table::{vendor_adjust, PerfTable};
