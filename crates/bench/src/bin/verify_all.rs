//! The whole-grid check: every workload phase × every feature set
//! through [`cisa_analyze::check_cell`], so each cell is compiled once
//! at `VerifyLevel::Full` and each migration pair is emulated once.
//!
//! Exits 1 on any of:
//! - a staged-verifier diagnostic (passes 1–5 during the compile,
//!   migration safety on every downgrade, including a failed
//!   emulation);
//! - an analyzer error finding, or a static claim contradicted by the
//!   compile-time feature selection or by emulation;
//! - a migration pair whose statically refined class is more
//!   pessimistic than the conservative one;
//! - zero pairs refined below the conservative class (the whole point
//!   of the migration-point map is to find some).
//!
//! The grid runs on the shared `cisa_explore::par_map` pool, so
//! `CISA_THREADS` bounds the worker count; the output is identical at
//! any thread count; the wall time goes to stderr. EXPERIMENTS.md
//! records the runtime.

use std::time::Instant;

use cisa_analyze::{check_cell, CellCheck};
use cisa_explore::{par_map, threads};
use cisa_isa::FeatureSet;
use cisa_workloads::{all_phases, PhaseSpec};

fn main() {
    let start = Instant::now();
    let phases = all_phases();
    let feature_sets = FeatureSet::all();
    let cells: Vec<(&PhaseSpec, &FeatureSet)> = phases
        .iter()
        .flat_map(|spec| feature_sets.iter().map(move |fs| (spec, fs)))
        .collect();
    let checks = par_map(&cells, threads(), |&(spec, fs)| {
        check_cell(spec, fs, &feature_sets)
    });
    let total = |field: fn(&CellCheck) -> usize| checks.iter().map(field).sum::<usize>();
    let refined = total(|c| c.refined);

    // Wall time goes to stderr, so stdout is the same at any thread
    // count and on any machine.
    eprintln!(
        "[verify_all] grid checked in {:.1?} on {} thread(s)",
        start.elapsed(),
        threads()
    );
    println!(
        "verified {} phases x {} feature sets ({} compiles, {} migration pairs)",
        phases.len(),
        feature_sets.len(),
        total(|c| usize::from(c.compiled)),
        total(|c| c.pairs)
    );
    println!(
        "  migration points: {} | refined pairs: {} ({} to native, {} off the width cliff) | advisories: {}",
        total(|c| c.migration_points),
        refined,
        total(|c| c.refined_to_native),
        total(|c| c.refined_off_width_cliff),
        total(|c| c.advisories)
    );

    let violations: Vec<&String> = checks.iter().flat_map(|c| &c.violations).collect();
    if !violations.is_empty() {
        eprintln!("{} violation(s):", violations.len());
        for v in violations.iter().take(50) {
            eprintln!("  {v}");
        }
        if violations.len() > 50 {
            eprintln!("  ... and {} more", violations.len() - 50);
        }
        std::process::exit(1);
    }
    if refined == 0 {
        eprintln!("no migration pair refined below the conservative classifier");
        std::process::exit(1);
    }
    println!("OK: zero violations");
}
