//! # cisa-power: McPAT-style power, area, and energy models
//!
//! Per-structure area and peak-power budgets for every core design
//! point ([`core_budget`]), chip-level shared-L2 budgeting
//! (`l2_cost`), and energy accounting from the simulator's activity
//! counters ([`energy()`]). Calibrated to the paper's
//! envelope (4.8W-23.4W, 9.4-28.6 mm^2 per core) and feature-cost
//! observations (SSE ~7.4% power / ~17.3% area; register width up to
//! ~6.4% power).

#![warn(missing_docs)]

pub mod energy;
pub mod model;

pub use energy::{energy, EnergyReport, CLOCK_HZ, IDLE_POWER_FRACTION};
pub use model::{chip_budget, core_budget, ChipBudget, CoreBreakdown, CoreBudget, StructureCost};
