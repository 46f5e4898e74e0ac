//! Migration cost classes for query answers.
//!
//! The heterogeneous-ISA migration-measurement literature (Mavrogeorgis
//! et al., see PAPERS.md) distinguishes migrations by how much work the
//! runtime must do *before* the thread runs on the destination core:
//! state-transformation-free migrations cost essentially a scheduler
//! hop, while transforming migrations pay for binary rewriting and —
//! in the worst case — for changing the in-memory representation of
//! live state. The composite-ISA design collapses most migrations into
//! the cheap classes because every feature set shares one encoding; the
//! classes below expose the residual cost structure as a first-class
//! field in `cisa-serve` query answers.
//!
//! Classification is a pure function of the *(compiled-for, target)*
//! feature-set pair — no compilation or simulation — so it is cheap
//! enough to annotate every ranked alternative in a serving response.
//! The measured slowdown of a transforming migration is still available
//! through [`crate::downgrade_cost`].

use std::fmt;

use cisa_isa::{DowngradeGap, FeatureSet};

/// How expensive migrating a running process to a target core is, in
/// the Mavrogeorgis et al. taxonomy adapted to composite ISAs.
///
/// Ordered by cost: `Native < Transforming < StateTransforming`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MigrationClass {
    /// The target core implements a superset of the features the code
    /// uses: the paper's *upgrade* path. No translation, no state
    /// transformation — the migration costs only the scheduler hop and
    /// cold microarchitectural state.
    Native,
    /// The target misses features the code uses, but every gap is
    /// repairable with local binary transformations ([`crate::emulate`]):
    /// register-context-block spills, load-compute-store expansion,
    /// reverse if-conversion, scalarized vectors. Memory state keeps
    /// its representation, so the migration is still
    /// state-transformation-free in the Mavrogeorgis sense — it pays
    /// in post-migration execution overhead, not in migration latency.
    Transforming,
    /// The width gap (64-bit code on a 32-bit core) is in play: live
    /// 64-bit values and fat pointers must be re-represented
    /// (long-mode emulation keeps pointers in xmm registers), which
    /// transforms register *state*, not just code. The expensive class.
    StateTransforming,
}

impl MigrationClass {
    /// Every class, in ascending cost order. Dense tabulations (the
    /// fleet scheduler's per-phase class tensor, per-class counters)
    /// iterate and index through this array.
    pub const ALL: [MigrationClass; 3] = [
        MigrationClass::Native,
        MigrationClass::Transforming,
        MigrationClass::StateTransforming,
    ];

    /// Stable lowercase identifier used in JSON responses and METRICS
    /// documentation.
    pub fn name(self) -> &'static str {
        match self {
            MigrationClass::Native => "native",
            MigrationClass::Transforming => "transforming",
            MigrationClass::StateTransforming => "state_transforming",
        }
    }

    /// Dense index into [`MigrationClass::ALL`] (cost order).
    pub fn index(self) -> usize {
        match self {
            MigrationClass::Native => 0,
            MigrationClass::Transforming => 1,
            MigrationClass::StateTransforming => 2,
        }
    }
}

impl fmt::Display for MigrationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The full classification of one prospective migration: its cost
/// class plus the concrete feature gaps driving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationCost {
    /// The cost class.
    pub class: MigrationClass,
    /// The feature dimensions the target must emulate. Empty iff the
    /// class is [`MigrationClass::Native`] when produced by
    /// [`classify_migration`]; a map-refined cost
    /// ([`crate::classify_migration_with`]) may prove a cheaper class
    /// while keeping the feature-set-level gaps for reference.
    pub gaps: Vec<DowngradeGap>,
}

impl MigrationCost {
    /// Short human-readable gap labels (stable, used in JSON answers).
    pub fn gap_names(&self) -> Vec<&'static str> {
        self.gaps
            .iter()
            .map(|g| match g {
                DowngradeGap::RegisterDepth { .. } => "register_depth",
                DowngradeGap::RegisterWidth => "register_width",
                DowngradeGap::Complexity => "complexity",
                DowngradeGap::Predication => "predication",
                DowngradeGap::Simd => "simd",
            })
            .collect()
    }
}

/// Classifies migrating code compiled for `compiled_for` onto a core
/// implementing `target`.
///
/// # Example
///
/// ```
/// use cisa_isa::FeatureSet;
/// use cisa_migrate::{classify_migration, MigrationClass};
///
/// let superset = FeatureSet::superset();
/// let x86_64 = FeatureSet::x86_64();
/// // Upgrade: x86-64 code runs natively on the superset core.
/// assert_eq!(classify_migration(x86_64, superset).class,
///            MigrationClass::Native);
/// // Downgrade: superset code on an x86-64 core needs local
/// // transformations (deep registers, predication).
/// assert_eq!(classify_migration(superset, x86_64).class,
///            MigrationClass::Transforming);
/// // A width downgrade transforms live state.
/// let narrow: FeatureSet = "x86-16D-32W".parse().expect("valid name");
/// assert_eq!(classify_migration(x86_64, narrow).class,
///            MigrationClass::StateTransforming);
/// ```
pub fn classify_migration(compiled_for: FeatureSet, target: FeatureSet) -> MigrationCost {
    let gaps = target.downgrade_gaps(&compiled_for);
    let class = if gaps.is_empty() {
        MigrationClass::Native
    } else if gaps.contains(&DowngradeGap::RegisterWidth) {
        MigrationClass::StateTransforming
    } else {
        MigrationClass::Transforming
    };
    MigrationCost { class, gaps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_iff_covered() {
        let all = FeatureSet::all();
        for &from in &all {
            for &to in &all {
                let c = classify_migration(from, to);
                assert_eq!(c.class == MigrationClass::Native, to.covers(&from));
                assert_eq!(c.gaps.is_empty(), c.class == MigrationClass::Native);
            }
        }
    }

    #[test]
    fn width_gap_dominates_classification() {
        let all = FeatureSet::all();
        for &from in &all {
            for &to in &all {
                let c = classify_migration(from, to);
                let has_width = c.gaps.contains(&DowngradeGap::RegisterWidth);
                assert_eq!(c.class == MigrationClass::StateTransforming, has_width);
            }
        }
    }

    #[test]
    fn classes_are_ordered_by_cost() {
        assert!(MigrationClass::Native < MigrationClass::Transforming);
        assert!(MigrationClass::Transforming < MigrationClass::StateTransforming);
    }

    #[test]
    fn gap_names_are_stable() {
        let superset = FeatureSet::superset();
        let minimal = FeatureSet::minimal();
        let c = classify_migration(superset, minimal);
        let names = c.gap_names();
        for expected in [
            "register_depth",
            "register_width",
            "complexity",
            "predication",
            "simd",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
    }
}
