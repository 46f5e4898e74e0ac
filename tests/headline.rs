//! Headline results: the paper's core claims, checked end-to-end on a
//! reduced (one-phase-per-benchmark) table so the test completes in
//! about a minute.
//!
//! Paper (Section VII): composite-ISA designs consistently outperform
//! single-ISA heterogeneous designs, match-or-beat vendor
//! heterogeneous-ISA designs, and reduce EDP; migration costs are
//! negligible because feature sets overlap.

use composite_isa::explore::multicore::{Budget, Evaluator, Objective};
use composite_isa::explore::{search_system, DesignSpace, PerfTable, SweepRunner, SystemKind};
use composite_isa::workloads::all_phases;
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

fn scores(objective: Objective, budget: Budget) -> Vec<(SystemKind, f64)> {
    let (space, table) = fixtures();
    let eval = Evaluator::new(space, table, 12);
    let cfg = composite_isa::explore::multicore::SearchConfig::default();
    SystemKind::ALL
        .iter()
        .map(|&k| {
            let s = search_system(&eval, k, objective, budget, &cfg)
                .map(|r| r.score)
                .unwrap_or(0.0);
            (k, s)
        })
        .collect()
}

fn score_of(v: &[(SystemKind, f64)], k: SystemKind) -> f64 {
    v.iter().find(|(x, _)| *x == k).map(|(_, s)| *s).unwrap()
}

#[test]
fn composite_beats_single_isa_heterogeneous_on_throughput() {
    for budget in [
        Budget::PeakPower(20.0),
        Budget::PeakPower(40.0),
        Budget::Area(64.0),
    ] {
        let v = scores(Objective::Throughput, budget);
        let composite = score_of(&v, SystemKind::CompositeFull);
        let single = score_of(&v, SystemKind::SingleIsaHetero);
        assert!(
            composite >= single * 0.995,
            "{budget:?}: composite {composite:.4} vs single-ISA {single:.4}"
        );
    }
}

#[test]
fn composite_matches_vendor_heterogeneous() {
    // The paper's goal line: recreate (and often exceed) multi-vendor
    // ISA heterogeneity with a single ISA.
    for budget in [Budget::PeakPower(40.0), Budget::Area(64.0)] {
        let v = scores(Objective::Throughput, budget);
        let composite = score_of(&v, SystemKind::CompositeFull);
        let vendor = score_of(&v, SystemKind::VendorHetero);
        assert!(
            composite >= vendor * 0.97,
            "{budget:?}: composite {composite:.4} vs vendor {vendor:.4}"
        );
    }
}

#[test]
fn heterogeneity_beats_homogeneity() {
    let v = scores(Objective::Throughput, Budget::PeakPower(40.0));
    let hom = score_of(&v, SystemKind::Homogeneous);
    let het = score_of(&v, SystemKind::SingleIsaHetero);
    let composite = score_of(&v, SystemKind::CompositeFull);
    assert!(
        het >= hom * 0.995,
        "hardware heterogeneity helps: {het:.4} vs {hom:.4}"
    );
    assert!(
        composite >= hom,
        "feature diversity helps: {composite:.4} vs {hom:.4}"
    );
}

#[test]
fn composite_improves_edp() {
    let v = scores(Objective::Edp, Budget::PeakPower(40.0));
    let composite = score_of(&v, SystemKind::CompositeFull);
    let single = score_of(&v, SystemKind::SingleIsaHetero);
    assert!(
        composite >= single * 0.995,
        "EDP gain: composite {composite:.4} vs single-ISA {single:.4}"
    );
}

#[test]
fn single_thread_gains_from_feature_diversity() {
    let v = scores(Objective::SingleThread, Budget::PeakPower(10.0));
    let composite = score_of(&v, SystemKind::CompositeFull);
    let single = score_of(&v, SystemKind::SingleIsaHetero);
    assert!(
        composite >= single * 0.995,
        "single-thread: composite {composite:.4} vs single-ISA {single:.4}"
    );
}
