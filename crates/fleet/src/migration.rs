//! Migration pricing: the per-phase cost-class tensor and the
//! Mavrogeorgis-grounded latency constants.
//!
//! The scheduler prices a prospective migration in two steps. First it
//! looks up the migration's **cost class** — native, transforming, or
//! state-transforming — in a dense `[phase][from_fs][to_fs]` tensor
//! built ahead of time. The tensor's entries come from
//! [`cisa_migrate::classify_migration_with`]: the conservative
//! feature-set-pair class, refined downward wherever the static
//! analyzer ([`cisa_analyze::analyze`] over the phase's actual
//! compiled bytes) proves a cheaper class at some program point.
//! Second it converts the class to cycles with
//! `class_latency_cycles`.
//!
//! The latencies are grounded in the heterogeneous-ISA migration
//! measurements of Mavrogeorgis et al. (PAPERS.md): migrations that
//! need no state transformation cost on the order of a scheduler hop
//! plus cold microarchitectural state (~10 us), binary-transforming
//! migrations pay an extra software pass over the function image
//! (~100 us), and state-transforming migrations — re-representing
//! live 64-bit state — are *orders of magnitude* costlier (~ms), which
//! is the entire reason the scheduler must price classes rather than
//! count migrations.

use cisa_analyze::{analyze, lay_out};
use cisa_compiler::{compile, CompileOptions};
use cisa_explore::{par_map, SweepRunner};
use cisa_isa::FeatureSet;
use cisa_migrate::{classify_migration, classify_migration_with, MigrationClass};
use cisa_workloads::{generate, PhaseSpec};

use crate::workload::Workload;

/// Cycles charged for a [`MigrationClass::Native`] migration: the
/// scheduler hop plus cold microarchitectural state (~8 us at 3 GHz).
/// Mavrogeorgis et al. measure state-transformation-free migrations at
/// context-switch cost.
pub const NATIVE_MIGRATION_CYCLES: f64 = 24_000.0;

/// Cycles charged for a [`MigrationClass::Transforming`] migration:
/// the native cost plus one software pass over the function image to
/// patch the feature gaps (~80 us at 3 GHz). Still
/// state-transformation-free in the Mavrogeorgis taxonomy — the extra
/// cost is code transformation, not state transformation.
pub const TRANSFORMING_MIGRATION_CYCLES: f64 = 240_000.0;

/// Cycles charged for a [`MigrationClass::StateTransforming`]
/// migration: live 64-bit values and fat pointers are re-represented
/// before the thread can run (~3 ms at 3 GHz). Mavrogeorgis et al.
/// put full state transformation orders of magnitude above the free
/// classes, and the ratio here (375x native) preserves that gap.
pub const STATE_TRANSFORMING_MIGRATION_CYCLES: f64 = 9_000_000.0;

/// Fraction of the destination core's peak power drawn while a
/// migration is in flight (state copy and transformation run at
/// near-idle power; matches the evaluator's idle fraction).
pub const MIGRATION_POWER_FRACTION: f64 = 0.3;

/// Latency in cycles of one migration of the given class.
pub(crate) fn class_latency_cycles(class: MigrationClass) -> f64 {
    match class {
        MigrationClass::Native => NATIVE_MIGRATION_CYCLES,
        MigrationClass::Transforming => TRANSFORMING_MIGRATION_CYCLES,
        MigrationClass::StateTransforming => STATE_TRANSFORMING_MIGRATION_CYCLES,
    }
}

/// Dense migration cost-class tensor: `[phase][from_fs][to_fs]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationMatrix {
    n_phases: usize,
    n_fs: usize,
    classes: Vec<u8>,
}

impl MigrationMatrix {
    /// The conservative tensor: every entry is the feature-set-pair
    /// class from [`classify_migration`], identical across phases.
    /// Used by tests and as the fallback when no static analysis is
    /// wanted.
    pub fn conservative(n_phases: usize, feature_sets: &[FeatureSet]) -> Self {
        let n_fs = feature_sets.len();
        let mut pair = vec![0u8; n_fs * n_fs];
        for (fi, from) in feature_sets.iter().enumerate() {
            for (ti, to) in feature_sets.iter().enumerate() {
                pair[fi * n_fs + ti] = classify_migration(*from, *to).class.index() as u8;
            }
        }
        let mut classes = Vec::with_capacity(n_phases * n_fs * n_fs);
        for _ in 0..n_phases {
            classes.extend_from_slice(&pair);
        }
        MigrationMatrix {
            n_phases,
            n_fs,
            classes,
        }
    }

    /// The statically-refined tensor: compiles every `(phase, from)`
    /// pair, recovers its migration-point map with the `cisa-analyze`
    /// pipeline, and prices each `(phase, from, to)` entry with
    /// [`classify_migration_with`] — so a migration the analyzer can
    /// prove state-transformation-free at some program point is priced
    /// at the cheaper class. Compiles fan out on the runner; the
    /// result is identical at any thread count.
    pub fn analyzed(
        phases: &[PhaseSpec],
        feature_sets: &[FeatureSet],
        runner: &SweepRunner,
    ) -> Self {
        let n_fs = feature_sets.len();
        let pairs: Vec<(usize, usize)> = (0..phases.len())
            .flat_map(|pi| (0..n_fs).map(move |fi| (pi, fi)))
            .collect();
        // One row of `to`-classes per (phase, from) pair.
        let rows = par_map(&pairs, runner.threads(), |&(pi, fi)| {
            let from = feature_sets[fi];
            let map = compile(&generate(&phases[pi]), &from, &CompileOptions::default())
                .ok()
                .and_then(|code| lay_out(&code).ok())
                .map(|image| analyze(&image.bytes).points);
            let mut row = vec![0u8; n_fs];
            for (ti, to) in feature_sets.iter().enumerate() {
                let cost = classify_migration_with(from, *to, map.as_ref());
                row[ti] = cost.class.index() as u8;
            }
            row
        });
        let classes = rows.into_iter().flatten().collect();
        MigrationMatrix {
            n_phases: phases.len(),
            n_fs,
            classes,
        }
    }

    /// The class of migrating phase `phase` code compiled for feature
    /// set `from` onto a core implementing `to`.
    #[inline]
    pub(crate) fn class(&self, phase: usize, from: u16, to: u16) -> MigrationClass {
        let i = (phase * self.n_fs + from as usize) * self.n_fs + to as usize;
        MigrationClass::ALL[self.classes[i] as usize]
    }

    /// The class for a (possibly blended) workload: the costlier of
    /// the two component phases' classes — a blended thread's image
    /// contains both phases' code, so the migration pays for the
    /// worse one.
    #[inline]
    pub(crate) fn class_for(&self, w: &Workload, from: u16, to: u16) -> MigrationClass {
        let a = self.class(w.p1 as usize, from, to);
        if w.is_pure() {
            return a;
        }
        a.max(self.class(w.p2 as usize, from, to))
    }

    /// Number of phase rows.
    pub fn n_phases(&self) -> usize {
        self.n_phases
    }

    /// Number of feature sets per axis.
    pub fn n_fs(&self) -> usize {
        self.n_fs
    }

    /// Count of entries in each class, in [`MigrationClass::ALL`]
    /// order (reported by `fleet_bench` to show how much the static
    /// refinement buys).
    pub fn class_counts(&self) -> [u64; 3] {
        let mut out = [0u64; 3];
        for &c in &self.classes {
            out[c as usize] += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_workloads::all_phases;

    #[test]
    fn latencies_preserve_the_order_of_magnitude_gap() {
        let native = class_latency_cycles(MigrationClass::Native);
        let transforming = class_latency_cycles(MigrationClass::Transforming);
        let state = class_latency_cycles(MigrationClass::StateTransforming);
        assert!(transforming >= 5.0 * native);
        assert!(state >= 10.0 * transforming);
        for c in MigrationClass::ALL {
            assert!(class_latency_cycles(c) > 0.0);
        }
        // Ascending cost order matches the class order.
        assert!(
            class_latency_cycles(MigrationClass::Native)
                < class_latency_cycles(MigrationClass::Transforming)
        );
        assert!(
            class_latency_cycles(MigrationClass::Transforming)
                < class_latency_cycles(MigrationClass::StateTransforming)
        );
    }

    #[test]
    fn conservative_matrix_matches_pairwise_classifier() {
        let fss = FeatureSet::all();
        let m = MigrationMatrix::conservative(3, &fss);
        for (fi, from) in fss.iter().enumerate() {
            for (ti, to) in fss.iter().enumerate() {
                let expect = classify_migration(*from, *to).class;
                for p in 0..3 {
                    assert_eq!(m.class(p, fi as u16, ti as u16), expect);
                }
            }
        }
    }

    #[test]
    fn analyzed_matrix_only_refines_downward() {
        let fss = FeatureSet::all();
        let phases: Vec<PhaseSpec> = all_phases().into_iter().take(2).collect();
        let runner = SweepRunner::new(2);
        let analyzed = MigrationMatrix::analyzed(&phases, &fss, &runner);
        let conservative = MigrationMatrix::conservative(phases.len(), &fss);
        let mut refined = 0u32;
        for p in 0..phases.len() {
            for f in 0..fss.len() as u16 {
                for t in 0..fss.len() as u16 {
                    let a = analyzed.class(p, f, t);
                    let c = conservative.class(p, f, t);
                    assert!(a <= c, "analysis must never make a migration costlier");
                    if a < c {
                        refined += 1;
                    }
                }
            }
        }
        assert!(refined > 0, "static analysis should refine some pairs");
    }

    #[test]
    fn blended_workloads_pay_the_costlier_component() {
        let fss = FeatureSet::all();
        let m = MigrationMatrix::conservative(2, &fss);
        let w = Workload {
            p1: 0,
            p2: 1,
            alpha: 0.5,
        };
        for f in 0..fss.len() as u16 {
            for t in 0..fss.len() as u16 {
                let c = m.class_for(&w, f, t);
                assert!(c >= m.class(0, f, t) && c >= m.class(1, f, t));
            }
        }
    }
}
