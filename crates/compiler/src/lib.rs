//! # cisa-compiler: the superset-ISA compiler back end
//!
//! An LLVM-flavoured compiler back end for the composite-ISA superset of
//! the Composite-ISA Cores paper (HPCA 2019, Section IV). It lowers a
//! small mid-level [`ir`] to encoded superset-ISA machine code,
//! specializing along every customizable feature dimension:
//!
//! - **register depth** — linear-scan allocation with spills, refills
//!   and rematerialization; prefix-cost-aware register priority
//!   ([`regalloc`]),
//! - **register width** — 64-bit data double-pumped on 32-bit targets,
//! - **instruction complexity** — memory-operand folding for full x86 vs
//!   explicit load-compute-store for microx86 ([`isel`]),
//! - **predication** — diamond/triangle/simple if-conversion with
//!   profitability analysis ([`ifconvert`]),
//! - **SIMD** — packed SSE2 compilation of vectorizable loops with a
//!   scalarized fallback.
//!
//! The entry point is [`compile`], called once per feature set to
//! produce the 26 variants the design-space exploration consumes.

#![warn(missing_docs)]

pub mod cfg;
pub mod code;
pub mod driver;
pub mod ifconvert;
pub mod ir;
pub mod isel;
pub mod regalloc;
pub mod select_features;
pub mod verify;

pub use cfg::{is_reducible, natural_loops, Dominators, NaturalLoop};
pub use code::{CodeStats, CompiledBlock, CompiledCode};
pub use driver::{compile, CompileError, CompileOptions};
pub use ifconvert::IfConvertStats;
pub use regalloc::RegAllocStats;
pub use select_features::{select_feature_set, FeatureChoice};
pub use verify::{VerifyError, VerifyLevel, VerifyPass};
