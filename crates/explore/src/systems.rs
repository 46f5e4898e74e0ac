//! The five system organizations the paper compares (Section VII-A),
//! plus the feature-constrained searches of the sensitivity study
//! (Section VII-B, Figure 9).

use cisa_isa::{FeatureConstraint, FeatureSet, VendorIsa};

use crate::multicore::{
    search, search_with_seeds, Budget, CoreChoice, Evaluator, Objective, SearchConfig, SearchResult,
};
use crate::space::DesignSpace;

/// The five organizations of Figures 5-8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Homogeneous x86-64: same ISA, same microarchitecture, all four
    /// cores.
    Homogeneous,
    /// Single-ISA heterogeneous: x86-64 everywhere, microarchitecture
    /// varies.
    SingleIsaHetero,
    /// Composite-ISA with the three fixed x86-ized feature sets of
    /// Table II (Thumb-ized, Alpha-ized, x86-64).
    X86izedFixed,
    /// Multi-vendor heterogeneous-ISA: real Thumb / Alpha / x86-64
    /// cores (the Venkat-Tullsen baseline).
    VendorHetero,
    /// Composite-ISA with full feature diversity: all 26 sets.
    CompositeFull,
}

impl SystemKind {
    /// All five, in the paper's presentation order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::Homogeneous,
        SystemKind::SingleIsaHetero,
        SystemKind::X86izedFixed,
        SystemKind::VendorHetero,
        SystemKind::CompositeFull,
    ];

    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Homogeneous => "Homogeneous (x86-64)",
            SystemKind::SingleIsaHetero => "Single-ISA Hetero (x86-64 + HW hetero)",
            SystemKind::X86izedFixed => "Composite-ISA, fixed sets (x86-ized Thumb/Alpha)",
            SystemKind::VendorHetero => "Heterogeneous-ISA (x86-64 + Alpha + Thumb)",
            SystemKind::CompositeFull => "Composite-ISA, full feature diversity",
        }
    }
}

/// Candidate cores for a system organization.
pub fn candidates(space: &DesignSpace, kind: SystemKind) -> Vec<CoreChoice> {
    let x86_idx = space
        .feature_sets
        .iter()
        .position(|f| *f == FeatureSet::x86_64())
        .expect("x86-64 in space") as u16;
    match kind {
        SystemKind::Homogeneous | SystemKind::SingleIsaHetero => space
            .ids()
            .filter(|id| id.fs == x86_idx)
            .map(CoreChoice::Composite)
            .collect(),
        SystemKind::X86izedFixed => {
            let fixed: Vec<u16> = VendorIsa::ALL
                .iter()
                .map(|v| {
                    space
                        .feature_sets
                        .iter()
                        .position(|f| *f == v.x86ized())
                        .expect("x86-ized sets in space") as u16
                })
                .collect();
            space
                .ids()
                .filter(|id| fixed.contains(&id.fs))
                .map(CoreChoice::Composite)
                .collect()
        }
        SystemKind::VendorHetero => {
            let n_ua = space.microarchs.len() as u16;
            VendorIsa::ALL
                .iter()
                .flat_map(|v| (0..n_ua).map(move |ua| CoreChoice::Vendor(*v, ua)))
                .collect()
        }
        SystemKind::CompositeFull => space.ids().map(CoreChoice::Composite).collect(),
    }
}

/// Candidate cores under a feature constraint (the Figure 9 study).
pub fn constrained_candidates(
    space: &DesignSpace,
    constraint: &FeatureConstraint,
) -> Vec<CoreChoice> {
    space
        .ids()
        .filter(|id| space.feature_sets[id.fs as usize].satisfies(constraint))
        .map(CoreChoice::Composite)
        .collect()
}

/// Runs the search for one system organization.
pub fn search_system(
    eval: &Evaluator<'_>,
    kind: SystemKind,
    objective: Objective,
    budget: Budget,
    config: &SearchConfig,
) -> Option<SearchResult> {
    let cands = candidates(eval.space, kind);
    let cfg = SearchConfig {
        identical: kind == SystemKind::Homogeneous,
        ..*config
    };
    if kind != SystemKind::CompositeFull {
        return search(eval, &cands, objective, budget, &cfg);
    }
    // The full composite space is a superset of the fixed-set and
    // single-ISA spaces, but a 4,680-candidate local search can get
    // stuck below their optima. Warm-start from their results so the
    // composite search dominates its subsets by construction. The two
    // sub-searches are independent, so they run as one parallel sweep.
    let subs = [SystemKind::X86izedFixed, SystemKind::SingleIsaHetero];
    let warm: Vec<[CoreChoice; 4]> =
        crate::runner::par_map(&subs, crate::runner::threads(), |&sub| {
            search_system(eval, sub, objective, budget, config).map(|r| r.cores)
        })
        .into_iter()
        .flatten()
        .collect();
    search_with_seeds(eval, &cands, objective, budget, &cfg, &warm)
}

/// The ten constraints of the Figure 9/10/11 sensitivity study.
pub fn sensitivity_constraints() -> Vec<(String, FeatureConstraint)> {
    use cisa_isa::{Complexity, Predication, RegisterDepth, RegisterWidth};
    let mut out = Vec::new();
    for d in RegisterDepth::ALL {
        out.push((
            format!("depth<={}", d.count()),
            FeatureConstraint::DepthAtMost(d),
        ));
    }
    for w in RegisterWidth::ALL {
        out.push((
            format!("{}-bit only", w.bits()),
            FeatureConstraint::WidthExactly(w),
        ));
    }
    out.push((
        "microx86 only".into(),
        FeatureConstraint::ComplexityExactly(Complexity::MicroX86),
    ));
    out.push((
        "x86 only".into(),
        FeatureConstraint::ComplexityExactly(Complexity::X86),
    ));
    out.push((
        "partial pred only".into(),
        FeatureConstraint::PredicationExactly(Predication::Partial),
    ));
    out.push((
        "full pred only".into(),
        FeatureConstraint::PredicationExactly(Predication::Full),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SweepRunner;
    use crate::table::PerfTable;
    use cisa_workloads::all_phases;
    use std::sync::OnceLock;

    fn fixtures() -> &'static (DesignSpace, PerfTable) {
        static CELL: OnceLock<(DesignSpace, PerfTable)> = OnceLock::new();
        CELL.get_or_init(|| {
            let space = DesignSpace::new();
            let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index == 0).collect();
            let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
            (space, table)
        })
    }

    #[test]
    fn candidate_counts() {
        let (space, _) = fixtures();
        assert_eq!(candidates(space, SystemKind::SingleIsaHetero).len(), 180);
        assert_eq!(candidates(space, SystemKind::X86izedFixed).len(), 3 * 180);
        assert_eq!(candidates(space, SystemKind::VendorHetero).len(), 3 * 180);
        assert_eq!(candidates(space, SystemKind::CompositeFull).len(), 4680);
    }

    #[test]
    fn sensitivity_has_ten_constraints() {
        assert_eq!(sensitivity_constraints().len(), 10);
    }

    #[test]
    fn constrained_candidates_filter() {
        let (space, _) = fixtures();
        use cisa_isa::{Complexity, FeatureConstraint};
        let micro = constrained_candidates(
            space,
            &FeatureConstraint::ComplexityExactly(Complexity::MicroX86),
        );
        assert_eq!(micro.len(), 13 * 180);
    }

    #[test]
    fn ordering_of_the_five_systems_under_tight_power() {
        // The paper's qualitative ordering at tight budgets:
        // homogeneous <= single-ISA hetero <= composite-full, and
        // composite-full >= vendor hetero.
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 10);
        let cfg = SearchConfig {
            pool_cap: 90,
            restarts: 1,
            ..Default::default()
        };
        let budget = Budget::PeakPower(20.0);
        let mut scores = std::collections::HashMap::new();
        for kind in SystemKind::ALL {
            let r = search_system(&eval, kind, Objective::Throughput, budget, &cfg)
                .unwrap_or_else(|| panic!("{kind:?} infeasible at 20W"));
            scores.insert(kind, r.score);
        }
        let s = |k| scores[&k];
        assert!(
            s(SystemKind::SingleIsaHetero) >= s(SystemKind::Homogeneous) * 0.999,
            "hetero {} vs homog {}",
            s(SystemKind::SingleIsaHetero),
            s(SystemKind::Homogeneous)
        );
        assert!(
            s(SystemKind::CompositeFull) >= s(SystemKind::SingleIsaHetero),
            "composite {} vs single-ISA {}",
            s(SystemKind::CompositeFull),
            s(SystemKind::SingleIsaHetero)
        );
        assert!(
            s(SystemKind::CompositeFull) >= s(SystemKind::VendorHetero) * 0.98,
            "composite {} vs vendor {}",
            s(SystemKind::CompositeFull),
            s(SystemKind::VendorHetero)
        );
    }

    #[test]
    fn x86ized_matches_vendor_closely() {
        // Table II's point: x86-ized fixed sets should generally match
        // vendor ISAs (trailing slightly is acceptable).
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 10);
        let cfg = SearchConfig {
            pool_cap: 90,
            restarts: 1,
            ..Default::default()
        };
        let budget = Budget::Area(64.0);
        let xi = search_system(
            &eval,
            SystemKind::X86izedFixed,
            Objective::Throughput,
            budget,
            &cfg,
        )
        .expect("feasible")
        .score;
        let vh = search_system(
            &eval,
            SystemKind::VendorHetero,
            Objective::Throughput,
            budget,
            &cfg,
        )
        .expect("feasible")
        .score;
        assert!(
            xi > vh * 0.85,
            "x86-ized {xi} should be within 15% of vendor {vh}"
        );
    }
}
