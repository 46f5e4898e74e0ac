//! Statically-proven migration points.
//!
//! [`crate::classify_migration`] prices a *(compiled-for, target)* pair
//! from feature-set metadata alone, so it must assume the worst: any
//! width gap becomes [`MigrationClass::StateTransforming`], any other
//! gap [`MigrationClass::Transforming`].  The `cisa-analyze` dataflow
//! pass proves tighter facts *per program point*: which registers can
//! still be live, whether any 64-bit value survives across the point,
//! and which feature-dependent instructions remain reachable from it.
//! A [`MigrationPointMap`] carries those residual facts, and
//! [`classify_migration_with`] uses them to refine the conservative
//! class — never in the optimistic-unsafe direction, because the
//! refined class is clamped by `min` against the conservative one and
//! the `verify_all` sweep cross-checks every pair against the dynamic
//! downgrade machinery.
//!
//! The flagship refinement mirrors Mavrogeorgis et al. (PAPERS.md):
//! a width downgrade only transforms *state* if a 64-bit value is live
//! across the migration point.  At a point where the analyzer proves no
//! wide value survives, remaining wide instructions are repaired by
//! double-pumping — a local binary transformation — so the pair drops
//! from `StateTransforming` to `Transforming` (or all the way to
//! `Native` if the residual code has no wide instructions at all).

use cisa_isa::{DowngradeGap, FeatureSet, RegisterDepth};

use crate::classes::{classify_migration, MigrationClass, MigrationCost};

/// Residual feature facts at one byte offset where migration is safe to
/// consider (in practice: a basic-block entry recovered by CFG
/// analysis).
///
/// Every field describes the code *reachable from* this point and the
/// state *live across* it, as proven by the `cisa-analyze` fixpoints.
/// Conservative producers must over-approximate (set `needs_*` flags
/// they cannot rule out); the classification below only gets cheaper
/// when a flag is provably absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPoint {
    /// Byte offset of the point in the function image.
    pub offset: usize,
    /// Deepest architectural register file any residual instruction
    /// addresses (a target at least this deep needs no register
    /// context block).
    pub needs_depth: RegisterDepth,
    /// Some residual instruction operates on 64-bit values (a narrow
    /// target must double-pump it).
    pub wide_code: bool,
    /// A 64-bit value may be live *across* this point, so a narrow
    /// target must re-represent register state (the expensive part of
    /// a width downgrade).
    pub wide_state: bool,
    /// Some residual instruction is predicated (a partial-predication
    /// target must reverse if-convert).
    pub needs_pred: bool,
    /// Some residual instruction is a vector op (a scalar target must
    /// scalarize).
    pub needs_vec: bool,
    /// Some residual compute instruction carries a memory operand (a
    /// microx86 target must expand it to load-compute-store).
    pub needs_memop: bool,
}

impl MigrationPoint {
    /// The migration class this single point implies for a downgrade
    /// whose conservative feature gaps are `gaps`.
    ///
    /// Each gap contributes only if the residual facts say the gapped
    /// feature is actually in play; the point's class is the costliest
    /// surviving contribution.
    pub fn class_for(&self, gaps: &[DowngradeGap]) -> MigrationClass {
        let mut class = MigrationClass::Native;
        for gap in gaps {
            let contribution = match gap {
                DowngradeGap::RegisterDepth { to, .. } => {
                    if self.needs_depth > *to {
                        MigrationClass::Transforming
                    } else {
                        MigrationClass::Native
                    }
                }
                DowngradeGap::RegisterWidth => {
                    if self.wide_state {
                        MigrationClass::StateTransforming
                    } else if self.wide_code {
                        MigrationClass::Transforming
                    } else {
                        MigrationClass::Native
                    }
                }
                DowngradeGap::Complexity => {
                    if self.needs_memop {
                        MigrationClass::Transforming
                    } else {
                        MigrationClass::Native
                    }
                }
                DowngradeGap::Predication => {
                    if self.needs_pred {
                        MigrationClass::Transforming
                    } else {
                        MigrationClass::Native
                    }
                }
                DowngradeGap::Simd => {
                    if self.needs_vec {
                        MigrationClass::Transforming
                    } else {
                        MigrationClass::Native
                    }
                }
            };
            class = class.max(contribution);
        }
        class
    }
}

/// The migration-point map of one analyzed function: every program
/// point the analyzer admits as a migration candidate, with its
/// residual feature facts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationPointMap {
    /// Candidate points in ascending byte-offset order.
    pub points: Vec<MigrationPoint>,
}

impl MigrationPointMap {
    /// The cheapest class any candidate point achieves for migrating
    /// code compiled for `compiled_for` onto `target`, or `None` when
    /// the map is empty (no static evidence — callers fall back to the
    /// conservative class).
    pub(crate) fn best_class(
        &self,
        compiled_for: FeatureSet,
        target: FeatureSet,
    ) -> Option<MigrationClass> {
        let gaps = target.downgrade_gaps(&compiled_for);
        self.points.iter().map(|p| p.class_for(&gaps)).min()
    }
}

/// [`classify_migration`], refined by a static migration-point map when
/// one is available.
///
/// The returned [`MigrationCost::gaps`] are always the conservative
/// feature-set-level gaps (they describe what the *pair* is missing);
/// only the class is refined, and only downward: the result is the
/// `min` of the statically-proven class and the conservative class, so
/// a buggy or empty map can never make a migration look cheaper than
/// the static proof supports nor costlier than the conservative
/// answer.
pub fn classify_migration_with(
    compiled_for: FeatureSet,
    target: FeatureSet,
    map: Option<&MigrationPointMap>,
) -> MigrationCost {
    let base = classify_migration(compiled_for, target);
    let class = match map.and_then(|m| m.best_class(compiled_for, target)) {
        Some(proven) => proven.min(base.class),
        None => base.class,
    };
    MigrationCost { class, ..base }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(offset: usize) -> MigrationPoint {
        MigrationPoint {
            offset,
            needs_depth: RegisterDepth::D8,
            wide_code: false,
            wide_state: false,
            needs_pred: false,
            needs_vec: false,
            needs_memop: false,
        }
    }

    #[test]
    fn empty_map_falls_back_to_conservative() {
        let all = FeatureSet::all();
        let empty = MigrationPointMap::default();
        for &from in &all {
            for &to in &all {
                assert_eq!(
                    classify_migration_with(from, to, Some(&empty)),
                    classify_migration(from, to),
                );
                assert_eq!(
                    classify_migration_with(from, to, None),
                    classify_migration(from, to),
                );
            }
        }
    }

    #[test]
    fn refinement_is_never_more_pessimistic() {
        let all = FeatureSet::all();
        let mut p = point(0);
        p.needs_depth = RegisterDepth::D64;
        p.wide_code = true;
        p.wide_state = true;
        p.needs_pred = true;
        p.needs_vec = true;
        p.needs_memop = true;
        let worst = MigrationPointMap { points: vec![p] };
        for &from in &all {
            for &to in &all {
                let refined = classify_migration_with(from, to, Some(&worst));
                let base = classify_migration(from, to);
                assert!(refined.class <= base.class, "{from} -> {to}");
                assert_eq!(refined.gaps, base.gaps);
            }
        }
    }

    #[test]
    fn clean_point_proves_native_everywhere() {
        let all = FeatureSet::all();
        let clean = MigrationPointMap {
            points: vec![point(4)],
        };
        for &from in &all {
            for &to in &all {
                assert_eq!(
                    classify_migration_with(from, to, Some(&clean)).class,
                    MigrationClass::Native,
                    "{from} -> {to}"
                );
            }
        }
    }

    #[test]
    fn dead_wide_state_downgrades_width_gap_to_transforming() {
        let from = FeatureSet::x86_64();
        let to: FeatureSet = "x86-16D-32W".parse().expect("valid name");
        assert_eq!(
            classify_migration(from, to).class,
            MigrationClass::StateTransforming
        );
        let mut p = point(0);
        p.needs_depth = RegisterDepth::D16;
        p.wide_code = true; // residual wide instructions: double-pump
        p.wide_state = false; // but no live 64-bit value across the point
        let map = MigrationPointMap { points: vec![p] };
        assert_eq!(
            classify_migration_with(from, to, Some(&map)).class,
            MigrationClass::Transforming
        );
        // With live wide state the static map agrees with the
        // conservative answer.
        p.wide_state = true;
        let map = MigrationPointMap { points: vec![p] };
        assert_eq!(
            classify_migration_with(from, to, Some(&map)).class,
            MigrationClass::StateTransforming
        );
    }
}
