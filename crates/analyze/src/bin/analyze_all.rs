//! Static-analysis sweep: every workload phase × every feature set
//! through layout + CFG recovery + dataflow, cross-checked against the
//! compile-time feature selection and the dynamic downgrade machinery
//! on every migration pair.
//!
//! Gates (exit 1 on any):
//! - any error-severity finding on a clean compile (undecodable
//!   stream, bad branch target, static features exceeding the
//!   compiled set, any claim contradicted by emulation);
//! - any migration pair whose statically-refined class is more
//!   optimistic than the dynamically-observed emulation floor;
//! - zero pairs improved over the conservative classifier (the whole
//!   point of the map is to find some).
//!
//! `CISA_THREADS` bounds the worker count; the CI `analyze` job runs
//! with 4, EXPERIMENTS.md records the single-threaded runtime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cisa_analyze::{analyze, check_against_compile, check_against_emulation, lay_out};
use cisa_compiler::{compile, CompileOptions};
use cisa_isa::FeatureSet;
use cisa_migrate::{
    classify_migration, classify_migration_with, emulate, EmulationStats, MigrationClass,
};
use cisa_workloads::{all_phases, generate};

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

#[derive(Default)]
struct Tally {
    compiles: usize,
    pairs: usize,
    violations: Vec<String>,
    improved: usize,
    improved_to_native: usize,
    improved_width: usize,
    advisories: usize,
    migration_points: usize,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.compiles += other.compiles;
        self.pairs += other.pairs;
        self.violations.extend(other.violations);
        self.improved += other.improved;
        self.improved_to_native += other.improved_to_native;
        self.improved_width += other.improved_width;
        self.advisories += other.advisories;
        self.migration_points += other.migration_points;
    }
}

fn main() {
    let start = Instant::now();
    let phases = all_phases();
    let feature_sets = FeatureSet::all();
    let next = AtomicUsize::new(0);
    let workers = threads().min(phases.len().max(1));

    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    let options = CompileOptions::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = phases.get(i) else { break };
                        let mut local = Tally::default();
                        let ir = generate(spec);
                        for fs in &feature_sets {
                            let code = match compile(&ir, fs, &options) {
                                Ok(c) => c,
                                Err(e) => {
                                    local
                                        .violations
                                        .push(format!("{}/{fs}: compile failed: {e}", spec.name()));
                                    continue;
                                }
                            };
                            let image = match lay_out(&code) {
                                Ok(im) => im,
                                Err(e) => {
                                    local
                                        .violations
                                        .push(format!("{}/{fs}: layout failed: {e}", spec.name()));
                                    continue;
                                }
                            };
                            let a = analyze(&image.bytes);
                            local.compiles += 1;
                            local.migration_points += a.points.points.len();
                            local.advisories +=
                                a.findings.len() - a.errors().count();
                            for f in a.errors() {
                                local
                                    .violations
                                    .push(format!("{}/{fs}: {f}", spec.name()));
                            }
                            for f in check_against_compile(&a, fs) {
                                local
                                    .violations
                                    .push(format!("{}/{fs}: {f}", spec.name()));
                            }
                            for target in &feature_sets {
                                local.pairs += 1;
                                for f in check_against_emulation(&a, &code, target) {
                                    local.violations.push(format!(
                                        "{}/{fs}->{target}: {f}",
                                        spec.name()
                                    ));
                                }
                                let base = classify_migration(*fs, *target);
                                let refined =
                                    classify_migration_with(*fs, *target, Some(&a.points));
                                if refined.class > base.class {
                                    local.violations.push(format!(
                                        "{}/{fs}->{target}: refinement went pessimistic ({} > {})",
                                        spec.name(), refined.class, base.class
                                    ));
                                }
                                // The dynamic floor: with every block
                                // reachable, the entry-point claim may
                                // never undercut what emulation
                                // actually did.
                                if a.all_reachable() && !target.covers(fs) {
                                    if let (Some(entry), Ok((_, stats))) =
                                        (a.entry_class(*fs, *target), emulate(&code, target))
                                    {
                                        let floor = if stats == EmulationStats::default() {
                                            MigrationClass::Native
                                        } else {
                                            MigrationClass::Transforming
                                        };
                                        if entry < floor {
                                            local.violations.push(format!(
                                                "{}/{fs}->{target}: entry claim {} below dynamic floor {}",
                                                spec.name(), entry, floor
                                            ));
                                        }
                                    }
                                }
                                if refined.class < base.class {
                                    local.improved += 1;
                                    if refined.class == MigrationClass::Native {
                                        local.improved_to_native += 1;
                                    }
                                    if base.class == MigrationClass::StateTransforming {
                                        local.improved_width += 1;
                                    }
                                }
                            }
                        }
                        done.push((i, local));
                    }
                    done
                })
            })
            .collect();
        // Merge in phase order, so the violation listing is the same
        // at any worker count and scheduling.
        let mut per_phase = Vec::with_capacity(phases.len());
        for h in handles {
            match h.join() {
                Ok(done) => per_phase.extend(done),
                Err(_) => per_phase.push((
                    usize::MAX,
                    Tally {
                        violations: vec!["analyzer worker panicked".into()],
                        ..Tally::default()
                    },
                )),
            }
        }
        per_phase.sort_by_key(|(i, _)| *i);
        for (_, local) in per_phase {
            tally.merge(local);
        }
    });

    println!(
        "analyzed {} phases x {} feature sets ({} compiles, {} migration pairs) in {:.1?}",
        phases.len(),
        feature_sets.len(),
        tally.compiles,
        tally.pairs,
        start.elapsed()
    );
    println!(
        "  migration points: {} | refined pairs: {} ({} to native, {} off the width cliff) | advisories: {}",
        tally.migration_points,
        tally.improved,
        tally.improved_to_native,
        tally.improved_width,
        tally.advisories
    );

    if !tally.violations.is_empty() {
        eprintln!("{} violations:", tally.violations.len());
        for v in tally.violations.iter().take(50) {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    if tally.improved == 0 {
        eprintln!("no migration pair improved over the conservative classifier");
        std::process::exit(1);
    }
}
