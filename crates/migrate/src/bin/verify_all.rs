//! Suite pre-flight: verifies every workload phase × every feature set
//! through the full six-pass ladder (staged compile verification plus
//! migration safety against all 26 targets), in parallel over phases.
//!
//! Exit status 0 iff zero diagnostics. `CISA_THREADS` bounds the worker
//! count (default: available parallelism). The CI `verify` job runs
//! this in release; EXPERIMENTS.md records the expected runtime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cisa_isa::FeatureSet;
use cisa_migrate::verify::{verify_phase, VerifyError};
use cisa_workloads::all_phases;

fn threads() -> usize {
    std::env::var("CISA_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

fn main() {
    let start = Instant::now();
    let phases = all_phases();
    let feature_sets = FeatureSet::all();
    let next = AtomicUsize::new(0);
    let workers = threads().min(phases.len().max(1));

    let mut errors: Vec<VerifyError> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = phases.get(i) else { break };
                        for fs in &feature_sets {
                            local.extend(verify_phase(spec, fs, &feature_sets));
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            errors.extend(h.join().expect("verifier worker panicked"));
        }
    });

    let pairs = phases.len() * feature_sets.len();
    println!(
        "verified {} phases x {} feature sets ({} compiles, {} migration pairs) in {:.1?}",
        phases.len(),
        feature_sets.len(),
        pairs,
        pairs * feature_sets.len(),
        start.elapsed()
    );
    if errors.is_empty() {
        println!("OK: zero violations");
        return;
    }
    eprintln!("{} violation(s):", errors.len());
    for e in &errors {
        eprintln!("  {e}");
    }
    std::process::exit(1);
}
