//! Suite verification: every workload phase × every feature set
//! through the full six-pass ladder (staged compile verification plus
//! migration safety against all 26 targets), via
//! [`cisa_migrate::verify::verify_suite`].
//!
//! Exit status 0 iff zero diagnostics. `CISA_THREADS` bounds the worker
//! count (default: available parallelism). The CI `verify` job runs
//! this in release; EXPERIMENTS.md records the expected runtime.

use std::time::Instant;

use cisa_isa::FeatureSet;
use cisa_migrate::verify::verify_suite;
use cisa_workloads::all_phases;

fn main() {
    let start = Instant::now();
    let report = verify_suite(&all_phases(), &FeatureSet::all());
    println!(
        "verified {} phases x {} feature sets ({} compiles, {} migration pairs) in {:.1?}",
        report.phases,
        report.feature_sets,
        report.phases * report.feature_sets,
        report.migration_pairs,
        start.elapsed()
    );
    if report.ok() {
        println!("OK: zero violations");
        return;
    }
    eprintln!("{} violation(s):", report.errors.len());
    for e in &report.errors {
        eprintln!("  {e}");
    }
    std::process::exit(1);
}
