//! # composite-isa
//!
//! A from-scratch Rust reproduction of **"Composite-ISA Cores: Enabling
//! Multi-ISA Heterogeneity Using a Single ISA"** (Venkat, Basavaraj,
//! Tullsen — HPCA 2019): the superset-ISA feature model, a compiler back
//! end that targets all 26 derivable feature sets, an x86-style decode
//! engine with a structural RTL model, a cycle-level CPU simulator, a
//! McPAT-style power model, the 4,680-point design-space exploration,
//! and the migration/downgrade machinery.
//!
//! This crate is a facade re-exporting the subsystem crates:
//!
//! - [`isa`] — feature sets, encoding, vendor ISA models
//! - [`compiler`] — IR, if-conversion, instruction selection, register
//!   allocation
//! - [`workloads`] — the 8 benchmark models, 49 phases, trace generation
//! - [`decode`] — micro-op cache / decoder models and RTL estimates
//! - [`sim`] — in-order and out-of-order pipeline models
//! - [`power`] — area/peak-power budgets and energy accounting
//! - [`explore`] — the design-space exploration and multicore search
//! - [`migrate`] — feature-downgrade emulation and its measured cost
//!   (the Figure 15 migration replay is in `cisa-bench`)
//!
//! # Quickstart
//!
//! ```
//! use composite_isa::isa::FeatureSet;
//! use composite_isa::compiler::{compile, CompileOptions};
//! use composite_isa::workloads::{all_phases, generate};
//!
//! let spec = &all_phases()[0];
//! let code = compile(&generate(spec), &FeatureSet::x86_64(), &CompileOptions::default())?;
//! assert!(code.stats.total_uops() > 0.0);
//! # Ok::<(), composite_isa::compiler::CompileError>(())
//! ```

pub use cisa_compiler as compiler;
pub use cisa_decode as decode;
pub use cisa_explore as explore;
pub use cisa_isa as isa;
pub use cisa_migrate as migrate;
pub use cisa_power as power;
pub use cisa_sim as sim;
pub use cisa_workloads as workloads;
